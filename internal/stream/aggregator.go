package stream

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"yourandvalue/internal/core"
	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/trafficclass"
	"yourandvalue/internal/weblog"
)

// AggregatorOption configures an Aggregator.
type AggregatorOption func(*Aggregator)

// WithShards sets how many accumulator shards (goroutines) consume the
// stream; the default is GOMAXPROCS. Per-user results are bit-identical
// for any shard count.
func WithShards(n int) AggregatorOption {
	return func(a *Aggregator) { a.shards = n }
}

// WithEventBuffer bounds the source→aggregator channel (backpressure).
func WithEventBuffer(n int) AggregatorOption {
	return func(a *Aggregator) { a.buffer = n }
}

// WithSnapshotEvery cuts a barrier-consistent snapshot every n
// distributed events; n <= 0 disables periodic snapshots (the final
// snapshot is always produced).
func WithSnapshotEvery(n int) AggregatorOption {
	return func(a *Aggregator) { a.snapEvery = n }
}

// WithTopK sets how many users and advertisers snapshots rank.
func WithTopK(k int) AggregatorOption {
	return func(a *Aggregator) { a.topK = k }
}

// Aggregator consumes an event stream through sharded per-user online
// cost accumulators backed by a core.Model. Each shard runs its own
// instance of the shared detect.Engine — the same classify → parse nURL
// → attribute publisher → encode path the batch analyzer folds over —
// and accumulates exactly as core.BatchEstimateContext does, so streamed
// per-user costs equal the batch path bit for bit. Create with
// NewAggregator; an Aggregator is single-use (one Run per instance).
type Aggregator struct {
	model      *core.Model
	dir        *iab.Directory
	registry   *nurl.Registry
	classifier *trafficclass.Classifier
	geo        *geoip.DB

	shards    int
	buffer    int
	snapEvery int
	topK      int

	latest      atomic.Pointer[Snapshot]
	snaps       atomic.Int64
	distributed atomic.Int64
}

// NewAggregator builds an aggregator estimating encrypted prices with
// model (nil tallies cleartext only, like the batch path) and resolving
// publisher categories through dir (nil falls back to keyword/hash
// categorization, like analyzer.New).
func NewAggregator(model *core.Model, dir *iab.Directory, opts ...AggregatorOption) *Aggregator {
	if dir == nil {
		dir = iab.NewDirectory(nil)
	}
	a := &Aggregator{
		model:      model,
		dir:        dir,
		registry:   nurl.Default(),
		classifier: trafficclass.DefaultClassifier(),
		geo:        geoip.Default(),
		shards:     runtime.GOMAXPROCS(0),
		buffer:     1024,
		snapEvery:  1 << 16,
		topK:       10,
	}
	for _, o := range opts {
		o(a)
	}
	if a.shards < 1 {
		a.shards = 1
	}
	if a.buffer < 1 {
		a.buffer = 1
	}
	if a.topK < 1 {
		a.topK = 1
	}
	return a
}

// Latest returns the most recent snapshot (nil before the first barrier
// completes). Safe to call concurrently with Run.
func (a *Aggregator) Latest() *Snapshot { return a.latest.Load() }

// Distributed returns how many events have been routed to shards so
// far. Safe to call concurrently with Run.
func (a *Aggregator) Distributed() int64 { return a.distributed.Load() }

// SnapshotLag reports how many distributed events the latest published
// snapshot is behind the live stream — the staleness anyone reading
// Latest() mid-run is looking at. Before the first barrier completes
// the lag is everything distributed so far.
func (a *Aggregator) SnapshotLag() int64 {
	lag := a.distributed.Load()
	if snap := a.latest.Load(); snap != nil {
		lag -= snap.Events
	}
	if lag < 0 {
		// Distributed is read first, so a barrier publishing between the
		// two loads can transiently run ahead.
		return 0
	}
	return lag
}

// Result is Run's output.
type Result struct {
	// Costs is every user's online-accumulated cost decomposition,
	// bit-identical to core.BatchEstimateContext for the same stream
	// and model.
	Costs map[int]*core.UserCost
	// Final is the snapshot at end of stream.
	Final *Snapshot
	// Events is how many events were distributed.
	Events int64
	// Snapshots counts the snapshots cut, including Final.
	Snapshots int
}

// shardMsg is one unit of work on a shard channel: an event, or a
// snapshot barrier.
type shardMsg struct {
	ev  Event
	bar *barrier
}

// barrier coordinates one consistent snapshot: every shard contributes
// its part, and whichever shard finishes last merges and publishes.
type barrier struct {
	events  int64
	parts   []*shardPart
	pending atomic.Int32
	dropped atomic.Bool // set when the barrier could not reach every shard
	agg     *Aggregator
	wg      *sync.WaitGroup
}

// complete registers one shard's part and publishes when it is the last.
func (b *barrier) complete(idx int, part *shardPart) {
	b.parts[idx] = part
	if b.pending.Add(-1) != 0 {
		return
	}
	defer b.wg.Done()
	if b.dropped.Load() {
		return
	}
	snap := mergeParts(b.events, b.agg.topK, b.parts)
	b.agg.snaps.Add(1)
	// Barriers can finish out of order when shards drain unevenly; only
	// ever move Latest forward.
	for {
		cur := b.agg.latest.Load()
		if cur != nil && cur.Events >= snap.Events {
			return
		}
		if b.agg.latest.CompareAndSwap(cur, snap) {
			return
		}
	}
}

// abort accounts for the shards the barrier never reached, so the last
// reached shard still releases the wait group.
func (b *barrier) abort(unreached int32) {
	b.dropped.Store(true)
	if b.pending.Add(-unreached) != 0 {
		return
	}
	b.wg.Done()
}

// Run consumes src until exhaustion or cancellation. Events are routed
// by user to one of the aggregator's shards over bounded channels, so a
// slow shard backpressures the source rather than ballooning memory.
func (a *Aggregator) Run(ctx context.Context, src Source) (*Result, error) {
	in := make(chan Event, a.buffer)
	srcErr := make(chan error, 1)
	go func() {
		err := src.Run(ctx, in)
		close(in)
		srcErr <- err
	}()

	shards := make([]*shard, a.shards)
	chans := make([]chan shardMsg, a.shards)
	var workers sync.WaitGroup
	for i := range shards {
		shards[i] = newShard(a, i)
		chans[i] = make(chan shardMsg, max(a.buffer/a.shards, 16))
		workers.Add(1)
		go func(sh *shard, ch <-chan shardMsg) {
			defer workers.Done()
			for m := range ch {
				sh.handle(m)
			}
		}(shards[i], chans[i])
	}

	var snapshots sync.WaitGroup
	events, distErr := a.distribute(ctx, in, chans, &snapshots)
	for _, ch := range chans {
		close(ch)
	}
	workers.Wait()
	snapshots.Wait()
	if err := <-srcErr; err != nil && distErr == nil {
		distErr = err
	}
	if distErr != nil {
		return nil, distErr
	}

	// The shard goroutines are done: read their state directly for the
	// final barrier-free snapshot and hand the accumulators over without
	// copying.
	parts := make([]*shardPart, a.shards)
	costs := make(map[int]*core.UserCost)
	for i, sh := range shards {
		parts[i] = sh.part()
		for id, uc := range sh.costs {
			costs[id] = uc
		}
	}
	final := mergeParts(events, a.topK, parts)
	a.snaps.Add(1)
	a.latest.Store(final)
	return &Result{
		Costs:     costs,
		Final:     final,
		Events:    events,
		Snapshots: int(a.snaps.Load()),
	}, nil
}

// distribute routes events to shard channels and injects snapshot
// barriers every snapEvery events.
func (a *Aggregator) distribute(ctx context.Context, in <-chan Event, chans []chan shardMsg, snapshots *sync.WaitGroup) (int64, error) {
	var events int64
	for {
		select {
		case ev, ok := <-in:
			if !ok {
				return events, nil
			}
			select {
			case chans[weblog.UserShard(ev.userID(), len(chans))] <- shardMsg{ev: ev}:
			case <-ctx.Done():
				return events, ctx.Err()
			}
			events++
			a.distributed.Store(events)
			if a.snapEvery > 0 && events%int64(a.snapEvery) == 0 {
				bar := &barrier{
					events: events,
					parts:  make([]*shardPart, len(chans)),
					agg:    a,
					wg:     snapshots,
				}
				bar.pending.Store(int32(len(chans)))
				snapshots.Add(1)
				for i, ch := range chans {
					select {
					case ch <- shardMsg{bar: bar}:
					case <-ctx.Done():
						bar.abort(int32(len(chans) - i))
						return events, ctx.Err()
					}
				}
			}
		case <-ctx.Done():
			return events, ctx.Err()
		}
	}
}

// shard owns a disjoint set of users. All of a user's events arrive on
// one shard in stream order, so per-user accumulation is sequential and
// deterministic no matter how many shards run. Each shard holds its own
// detect.Engine (publisher-attribution state and symbol-keyed caches)
// and a reused encode buffer, so the warm per-event path allocates
// nothing.
type shard struct {
	agg *Aggregator
	idx int

	eng *detect.Engine
	vec []float64 // reused encode scratch (nil without a model)

	costs       map[int]*core.UserCost
	advertisers map[string]advertiserTotals
	topUsers    *Tracker[int]

	impressions    int64
	cleartextCount int64
	encryptedCount int64
	cleartextCPM   float64
	encryptedCPM   float64
}

func newShard(a *Aggregator, idx int) *shard {
	s := &shard{
		agg: a,
		idx: idx,
		eng: detect.NewEngine(detect.Config{
			Registry:   a.registry,
			Classifier: a.classifier,
			GeoDB:      a.geo,
			Directory:  a.dir,
		}),
		costs:       make(map[int]*core.UserCost),
		advertisers: make(map[string]advertiserTotals),
		topUsers:    NewTracker[int](a.topK),
	}
	if a.model != nil {
		s.vec = make([]float64, a.model.Features.Dim())
	}
	return s
}

func (s *shard) handle(m shardMsg) {
	if m.bar != nil {
		m.bar.complete(s.idx, s.part())
		return
	}
	s.process(m.ev)
}

// process runs the shared detection engine over one event and folds the
// emission into the shard's accumulators, exactly like core's
// estimateUser over the batch analyzer's impressions.
func (s *shard) process(ev Event) {
	if ev.Kind == EventUserDone {
		// The user's stream is complete: release transient state so a
		// generated population of millions stays bounded. Costs remain.
		s.eng.ForgetUser(ev.User.ID)
		return
	}
	r := ev.Request
	uc := s.costs[r.UserID]
	if uc == nil {
		uc = &core.UserCost{UserID: r.UserID}
		s.costs[r.UserID] = uc
	}
	em := s.eng.Step(r.Detect())
	if !em.Detected {
		return
	}
	n := em.Impression.Notification
	s.impressions++
	var spend float64
	switch n.Kind {
	case nurl.Cleartext:
		spend = n.PriceCPM
		uc.CleartextCPM += n.PriceCPM
		uc.CleartextCount++
		s.cleartextCPM += n.PriceCPM
		s.cleartextCount++
	case nurl.Encrypted:
		if s.agg.model != nil {
			s.agg.model.Features.EncodeImpressionInto(s.vec, em.Impression)
			spend = s.agg.model.EstimateCPM(s.vec)
			uc.EncryptedCPM += spend
			s.encryptedCPM += spend
		}
		uc.EncryptedCount++
		s.encryptedCount++
	default:
		return
	}
	s.topUsers.Update(r.UserID, uc.CleartextCPM+uc.EncryptedCPM)
	if n.DSP != "" {
		at := s.advertisers[n.DSP]
		at.spendCPM += spend
		at.impressions++
		s.advertisers[n.DSP] = at
	}
}

// part cuts the shard's immutable snapshot contribution.
func (s *shard) part() *shardPart {
	p := &shardPart{
		costs:          make(map[int]core.UserCost, len(s.costs)),
		advertisers:    make(map[string]advertiserTotals, len(s.advertisers)),
		topUsers:       s.topUsers.Top(),
		users:          len(s.costs),
		impressions:    s.impressions,
		cleartextCount: s.cleartextCount,
		encryptedCount: s.encryptedCount,
		cleartextCPM:   s.cleartextCPM,
		encryptedCPM:   s.encryptedCPM,
	}
	for id, uc := range s.costs {
		p.costs[id] = *uc
	}
	for name, at := range s.advertisers {
		p.advertisers[name] = at
	}
	return p
}
