package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
)

// servingKind picks what the two connections send.
type servingKind int

const (
	kindSmall  servingKind = iota // both: /v2/estimate, smallItems items each
	kindStream                    // both: /v2/estimate/stream, streamItems items each
	kindMixed                     // one: /v2/estimate; the other: contribute cycles
)

// Work per nominal second of --seconds, fixed so every run of a workload
// sends the same requests. Sized so one nominal second takes about one
// second on a 2-vCPU x86-64 VM.
const (
	smallPerSec      = 6000 // /v2/estimate requests per connection (estimate-small)
	streamPerSec     = 26   // /v2/estimate/stream requests per connection
	mixedSmallPerSec = 6500 // /v2/estimate requests on the read connection (mixed-writes)
	// mixedCyclesPerSec is the write connection's /v2/contribute cycles
	// per nominal second: 3 retrains, which keep one vCPU busy for about
	// a fifth of the read connection's time. At 40 cycles (5 retrains) it
	// was about 40%, close enough to half that a sub-phase's p50 landed
	// now among the requests beside a retrain and now among the others.
	mixedCyclesPerSec = 24
	// warmupDiv sets the discarded warm-up phase to 1/warmupDiv of the
	// timed work.
	warmupDiv = 5
	// pollEvery is the write connection's conditional GET /v2/model
	// period in contribute cycles. A retrain lands every
	// ceil(pmeRetrainCount/contribBatch) = 8 cycles, so half the polls
	// see a new version (200) and half do not (304).
	pollEvery = 4
	// idleRetrains is how many retrains the workloads without write
	// traffic run to measure retrain_s (see idleTrainer).
	idleRetrains = 30
)

// work is the fixed amount of work of one phase.
type work struct {
	small  [conns]int // /v2/estimate requests per connection
	stream [conns]int // /v2/estimate/stream requests per connection
	cycles int        // contribute cycles on the last connection
}

func workFor(kind servingKind, seconds int) work {
	var w work
	switch kind {
	case kindSmall:
		w.small = [conns]int{seconds * smallPerSec, seconds * smallPerSec}
	case kindStream:
		w.stream = [conns]int{seconds * streamPerSec, seconds * streamPerSec}
	case kindMixed:
		w.small[0] = seconds * mixedSmallPerSec
		w.cycles = seconds * mixedCyclesPerSec
	}
	return w
}

// div is w split into n parts, rounded up.
func (w work) div(n int) work {
	for c := range w.small {
		w.small[c] = (w.small[c] + n - 1) / n
		w.stream[c] = (w.stream[c] + n - 1) / n
	}
	w.cycles = (w.cycles + n - 1) / n
	return w
}

// phaseStats is what one phase measured.
type phaseStats struct {
	elapsed  time.Duration   // until every estimate connection finished
	lat      []time.Duration // latency of every answered estimate request
	items    int64           // estimates answered
	ops      int64
	failed   int64
	retrains []time.Duration // RetrainOnce wall times
}

func (p phaseStats) itemsPerSec() float64 { return float64(p.items) / p.elapsed.Seconds() }

// add sums p into s.
func (s *phaseStats) add(p phaseStats) {
	s.elapsed += p.elapsed
	s.lat = append(s.lat, p.lat...)
	s.items += p.items
	s.ops += p.ops
	s.failed += p.failed
	s.retrains = append(s.retrains, p.retrains...)
}

// subPhases is how many sub-phases the timed work runs as.
const subPhases = 10

// timed runs w as subPhases equal sub-phases, each on newly dialed
// connections, and returns their sum and, over the sub-phases, the
// second-best items per second and p50 and p99 latency. Interference
// from outside the process only ever slows a sub-phase down, and on a
// shared 2-vCPU VM it comes in bursts of seconds that move whole
// sub-phases by 10–30%; the second-best sub-phase is what the program
// sustains when left alone, without resting on the single luckiest one.
// Fresh connections per sub-phase keep a slow connection pairing from
// lasting a whole run. With idle non-nil, idle retrains run after each
// sub-phase, off the clock.
func (r *runner) timed(ctx context.Context, w work, idle *idleTrainer) (sum phaseStats, itemsPerSec float64, p50, p99 time.Duration) {
	var ips, q50, q99 []float64
	for k := 0; k < subPhases; k++ {
		r.cl.close()
		probes.sample()
		p := r.phase(ctx, w.div(subPhases))
		probes.sample()
		idle.between(ctx, subPhases, &p)
		logf("sub-phase %d: %.0f items/s, p50 %.3fms, p99 %.3fms", k, p.itemsPerSec(), ms(percentile(p.lat, 50)), ms(percentile(p.lat, 99)))
		ips = append(ips, p.itemsPerSec())
		q50 = append(q50, float64(percentile(p.lat, 50)))
		q99 = append(q99, float64(percentile(p.lat, 99)))
		sum.add(p)
	}
	return sum, secondHighest(ips), time.Duration(secondLowest(q50)), time.Duration(secondLowest(q99))
}

// connStats is one connection's share of a phase.
type connStats struct {
	lat      []time.Duration
	items    int64
	ops      int64
	failed   int64
	retrains []time.Duration
	pending  []reply // replies at versions the oracle had not prepared
}

type reply struct {
	version int
	req     *request
	got     []float64
}

func (st *connStats) fail(err error) {
	st.failed++
	if st.failed <= 3 {
		logf("operation failed: %v", err)
	}
}

// runner drives one server through phases of fixed work.
type runner struct {
	in     *inputs
	oracle *oracle
	srv    *server
	cl     *client
	rt     *pme.Retrainer
	etag   string // the write connection's last seen model ETag
	cycle  int    // contribute cycles sent so far
}

func newRunner(in *inputs, o *oracle, srv *server, cl *client, src pme.ModelSource, etag string) *runner {
	return &runner{
		in: in, oracle: o, srv: srv, cl: cl, etag: etag,
		rt: pme.NewRetrainerWith(src, srv.pool(), pme.RetrainConfig{
			MinSamples: pmeRetrainCount,
			Interval:   pmeRetrainEvery,
			Seed:       pmeSeed + 100,
		}),
	}
}

// phase runs w on the connections and returns when all of it is done and
// every reply is checked.
func (r *runner) phase(ctx context.Context, w work) phaseStats {
	var (
		wg  sync.WaitGroup
		st  [conns]connStats
		end [conns]time.Duration
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case w.small[c] > 0:
				r.smallLoop(ctx, c, w.small[c], &st[c])
				end[c] = time.Since(start)
			case w.stream[c] > 0:
				r.streamLoop(ctx, c, w.stream[c], &st[c])
				end[c] = time.Since(start)
			case c == conns-1 && w.cycles > 0:
				r.writeLoop(ctx, w.cycles, &st[c])
			}
		}()
	}
	wg.Wait()

	var ps phaseStats
	for c := range st {
		ps.elapsed = max(ps.elapsed, end[c])
		ps.lat = append(ps.lat, st[c].lat...)
		ps.items += st[c].items
		ps.ops += st[c].ops
		ps.retrains = append(ps.retrains, st[c].retrains...)
		for _, rp := range st[c].pending {
			if err := r.oracle.check(rp.version, rp.req, rp.got); err != nil {
				st[c].fail(err)
			}
		}
		ps.failed += st[c].failed
	}
	r.oracle.retire()
	return ps
}

// verify checks a reply now when the oracle has prepared its version and
// keeps it for after the phase otherwise.
func (r *runner) verify(st *connStats, version int, req *request, got []float64, reused bool) {
	if want, ok := r.oracle.known(version, req); ok {
		if err := sameBits(got, want); err != nil {
			st.fail(err)
		}
		return
	}
	if reused {
		got = slices.Clone(got)
	}
	st.pending = append(st.pending, reply{version, req, got})
}

func (r *runner) smallLoop(ctx context.Context, conn, n int, st *connStats) {
	var buf bytes.Buffer
	st.lat = make([]time.Duration, 0, n)
	for j := 0; j < n; j++ {
		req := r.in.small[(j*conns+conn)%len(r.in.small)]
		t0 := time.Now()
		version, got, err := r.cl.estimate(ctx, req.body, &buf)
		d := time.Since(t0)
		st.ops++
		if err != nil {
			st.fail(err)
			continue
		}
		st.lat = append(st.lat, d)
		st.items += int64(len(got))
		r.verify(st, version, req, got, false)
	}
}

func (r *runner) streamLoop(ctx context.Context, conn, n int, st *connStats) {
	dst := make([]float64, streamItems)
	st.lat = make([]time.Duration, 0, n)
	for j := 0; j < n; j++ {
		req := r.in.stream[(j*conns+conn)%len(r.in.stream)]
		t0 := time.Now()
		version, err := r.cl.stream(ctx, req.body, dst[:len(req.items)])
		d := time.Since(t0)
		st.ops++
		if err != nil {
			st.fail(err)
			continue
		}
		st.lat = append(st.lat, d)
		st.items += int64(len(req.items))
		r.verify(st, version, req, dst[:len(req.items)], true)
	}
}

// writeLoop sends contribute cycles. Whenever pmeRetrainCount trainable
// contributions have pooled it runs one RetrainOnce on its own goroutine
// and waits for it, so every retrain trains on the same contributions;
// every pollEvery-th cycle it polls GET /v2/model with its last ETag.
func (r *runner) writeLoop(ctx context.Context, cycles int, st *connStats) {
	var buf bytes.Buffer
	for i := 0; i < cycles; i++ {
		cyc := r.cycle
		r.cycle++
		res, err := r.cl.contribute(ctx, r.in.contribs[cyc%len(r.in.contribs)], &buf)
		st.ops++
		switch {
		case err != nil:
			st.fail(err)
		case res.Accepted != contribBatch:
			st.fail(fmt.Errorf("/v2/contribute accepted %d of %d (dropped %d, invalid %d)",
				res.Accepted, contribBatch, res.Dropped, res.Invalid))
		}
		if r.srv.pool().TrainableLen() >= pmeRetrainCount {
			st.ops++
			d, err := r.retrain(ctx)
			if err != nil {
				st.fail(err)
			} else {
				st.retrains = append(st.retrains, d)
			}
		}
		if cyc%pollEvery == pollEvery-1 {
			st.ops++
			status, etag, err := r.cl.poll(ctx, r.etag, &buf)
			switch {
			case err != nil:
				st.fail(err)
			case status == 200:
				if err := r.oracle.checkModel(etag, buf.Bytes()); err != nil {
					st.fail(err)
				}
				r.etag = etag
			case etag != r.etag:
				st.fail(fmt.Errorf("/v2/model: 304 with ETag %s, polled with %s", etag, r.etag))
			}
		}
	}
}

// retrain runs one RetrainOnce off the connection goroutine and returns
// its wall time once it is done.
func (r *runner) retrain(ctx context.Context) (time.Duration, error) {
	type result struct {
		d   time.Duration
		err error
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		snap, err := r.rt.RetrainOnce(ctx)
		d := time.Since(start)
		if err == nil {
			r.oracle.add(snap)
		}
		done <- result{d, err}
	}()
	res := <-done
	return res.d, res.err
}

// idleTrainer measures retrain_s on the workloads without write traffic:
// every workload must report it. It pools the contributions of the write
// connection's retrains and runs RetrainOnce on them with nothing else
// running, publishing into a registry no server reads, so the served
// model stays the bootstrap's. The retrains are spread over the run, a
// few after each sub-phase or pass: clumped into one 2.5 s stretch after
// the timed phase, their median spread up to 0.32 over 10 runs, because
// the machine's speed changes in bursts of seconds.
type idleTrainer struct {
	in   *inputs
	pool *pme.Pool
	src  *timedSource
	rt   *pme.Retrainer
	next int // batches pooled so far
}

func newIdleTrainer(in *inputs, base *pme.Snapshot) *idleTrainer {
	reg := pme.NewRegistry()
	reg.Adopt(base)
	t := &idleTrainer{in: in, pool: pme.NewPool(0), src: &timedSource{Registry: reg}}
	t.rt = pme.NewRetrainerWith(t.src, t.pool, pme.RetrainConfig{
		MinSamples: pmeRetrainCount,
		Interval:   pmeRetrainEvery,
		Seed:       pmeSeed + 100,
	})
	return t
}

// between runs idleRetrains/parts retrains, rounded up, and records them
// in p as operations and retrain times. A nil t does nothing.
func (t *idleTrainer) between(ctx context.Context, parts int, p *phaseStats) {
	if t == nil {
		return
	}
	const per = 8 * contribBatch // the contributions that trip a retrain
	for i := 0; i < (idleRetrains+parts-1)/parts; i++ {
		batch := make([]pme.Contribution, per)
		for j := range batch {
			batch[j] = t.in.pool[(t.next*per+j)%len(t.in.pool)]
		}
		t.next++
		t.pool.Add(batch)
		// Each retrain starts from a collected heap, so retrain_s does not
		// depend on how much garbage the work before it left.
		runtime.GC()
		start := time.Now()
		_, err := t.rt.RetrainOnce(ctx)
		d := time.Since(start)
		p.ops++
		if err != nil {
			p.failed++
			logf("idle retrain failed: %v", err)
			continue
		}
		p.retrains = append(p.retrains, d)
	}
}

// servingRoute is the pmeserver route name of a workload's estimates.
func servingRoute(kind servingKind) string {
	if kind == kindStream {
		return "v2.estimate_stream"
	}
	return "v2.estimate"
}

// runServing is the body of the three serving workloads.
func runServing(kind servingKind) func(context.Context, runConfig) (*result, error) {
	return func(ctx context.Context, rc runConfig) (*result, error) {
		in, err := buildInputs(rc.seed, pmeScale)
		if err != nil {
			return nil, err
		}
		logf("inputs: seed %d digest %s: %d estimate bodies of %d items, %d stream bodies of %d items, %d contribute bodies of %d",
			rc.seed, in.digest, len(in.small), smallItems, len(in.stream), streamItems, len(in.contribs), contribBatch)

		d, err := deploy(ctx, rc.traced)
		if err != nil {
			return nil, err
		}
		defer d.close()
		logf("setup: ready in %.2fs (train-model %.2fs)", secs(d.times.total), secs(d.times.train))

		o := newOracle()
		o.add(d.snap)
		if err := prepare(o, d.snap.Version, in); err != nil {
			return nil, err
		}
		w := workFor(kind, rc.seconds)
		res := &result{Correct: true}

		// The server cmd/pme runs, measured untraced.
		cl := newClient(d.plain.url, nil)
		defer cl.close()
		plain := newRunner(in, o, d.plain, cl, d.reg, d.snap.ETag)
		runtime.GC()
		res.count(plain.phase(ctx, w.div(warmupDiv)))
		var idle *idleTrainer
		if kind != kindMixed {
			idle = newIdleTrainer(in, d.snap)
		}
		if !rc.traced {
			timed, ips, p50, p99 := plain.timed(ctx, w, idle)
			res.count(timed)
			rss := peakRSSMB()
			retrains := timed.retrains
			logf("timed: %d items in %.2fs (%.0f/s), %d requests; second-best of %d sub-phases: %.0f items/s, p50 %.3fms, p99 %.3fms; %d retrains median %.3fs; %d failed",
				timed.items, secs(timed.elapsed), timed.itemsPerSec(), len(timed.lat), subPhases, ips, ms(p50), ms(p99),
				len(retrains), secs(medianDur(retrains)), res.Failed)
			res.Metrics = endToEndMetrics(d.times.total, ips, p50, p99, medianDur(retrains), rss)
			return res.done(), nil
		}

		// A second server over the same registry with the timing
		// wrappers, the request observer and route spans attached; the
		// per-layer metrics come from its phases.
		tr := newTracing()
		ts, err := startServer(d.reg, obs.NewRegistry(), tr)
		if err != nil {
			return nil, err
		}
		defer ts.close()
		tcl := newClient(ts.url, tr.spans)
		defer tcl.close()
		cur := d.reg.Current()
		if err := prepare(o, cur.Version, in); err != nil {
			return nil, err
		}
		traced := newRunner(in, o, ts, tcl, d.timed, cur.ETag)
		runtime.GC()
		res.count(traced.phase(ctx, w.div(warmupDiv)))
		before, err := tcl.scrape(ctx)
		if err != nil {
			return nil, err
		}
		d.timed.take()
		// The timed work runs as sub-phases that alternate between the
		// plain and the traced server, so trace.overhead_frac compares the
		// two in the same process and machine state. Run one after the
		// other, the later server was up to 35% faster: the process speeds
		// up as it ages.
		var base, tp phaseStats
		var rt rtSample
		tr.on.Store(true)
		for k := 0; k < subPhases; k++ {
			base.add(plain.phase(ctx, w.div(subPhases)))
			rt0 := readRuntime()
			p := traced.phase(ctx, w.div(subPhases))
			rt.addDelta(rt0, readRuntime())
			idle.between(ctx, subPhases, &p)
			tp.add(p)
		}
		tr.on.Store(false)
		res.count(base)
		res.count(tp)
		after, err := tcl.scrape(ctx)
		if err != nil {
			return nil, err
		}
		pubs := d.timed.take()
		if idle != nil {
			pubs = idle.src.take()
		}

		m := metrics{}
		route := servingRoute(kind)
		routeGap := m.addRoute(tr, route, tp.lat, kind == kindStream)
		m.addBatcher(before, after)
		m.addWrites(tr, tp.retrains, pubs, ts.pool())
		m.addReplay(cur.Model, replayItems(in, kind))
		setupGap := m.addSetup(d.times)
		m.addRuntime(rt, tp.items)
		m.set("trace.overhead_frac", 1-tp.itemsPerSec()/base.itemsPerSec())
		m.set("machine.slowdown", probes.slowdown())
		logf("trace overhead: %.1f%% of untraced items/s", 100*m["trace.overhead_frac"].Value)
		res.reconcile(m,
			gap{"trace.route_gap_frac", "pmeserver.self_us + pme.estimate_us vs pmeserver.route_us.p50", routeGap},
			gap{"trace.setup_gap_frac", "setup.* stages vs setup_s", setupGap})
		writeSpans(rc, tr)
		res.Metrics = m
		return res.done(), nil
	}
}

// prepare computes the oracle's expectations of every estimate body at
// version before timing.
func prepare(o *oracle, version int, in *inputs) error {
	if err := o.prepare(version, in.small); err != nil {
		return err
	}
	return o.prepare(version, in.stream)
}

// replayItems are the items a workload sent, for the encode and walk
// replays.
func replayItems(in *inputs, kind servingKind) []pme.EstimateItem {
	var items []pme.EstimateItem
	if kind == kindStream {
		for _, r := range in.stream {
			items = append(items, r.items...)
		}
		return items
	}
	for _, r := range in.small {
		items = append(items, r.items...)
	}
	return items
}
