package pme

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/hist"
)

// Batcher coalesces concurrent estimate requests into shared tree-major
// forest walks. Each caller encodes its items against its own pinned
// snapshot and enqueues the rows into a double-buffered submission
// queue; a flush takes everything queued, merges rows that share a
// snapshot into one matrix, runs a single PredictInto over it, and
// scatters the per-row CPMs back to the waiting callers. At high
// concurrency the server does one large cache-resident walk where it
// used to do N small cold ones.
//
// Flush policy — work-conserving, never slower than the direct path:
//
//   - size: queued rows reached MaxBatch; whoever enqueued the
//     crossing row flushes immediately.
//   - idle: a flush slot is free (fewer than Workers flushes running),
//     so waiting would add latency without adding batching — the
//     enqueuer takes the slot and flushes its own (possibly merged)
//     batch inline. At concurrency 1 this degenerates to exactly the
//     direct path plus one queue handoff.
//   - deadline: every slot was busy, so rows queue up behind the
//     running flushes; a timer bounds the wait at MaxWait. This is
//     where coalescing actually happens: by the time a slot frees or
//     the deadline fires, many callers' rows flush as one walk.
//   - backlog: a flusher that finished its batch found the queue
//     refilled and looped without releasing its slot.
//   - drain: Close flushed the remainder.
//
// Version consistency: a request's rows are encoded against the
// snapshot its caller pinned (feature layout is per-snapshot state, so
// encoding cannot be deferred past the pin), requests are grouped by
// snapshot at flush time, and each PredictInto runs against exactly one
// snapshot's engine. A registry hot-swap mid-flight therefore splits a
// flush into per-version groups instead of mixing versions, and every
// caller's result — value and reported version — is bit-identical to
// what the direct path would have produced.
//
// All methods are safe for concurrent use.
type Batcher struct {
	cfg BatcherConfig

	// slots holds one token per permitted concurrent flush; a flush runs
	// on whichever goroutine acquired the token (enqueuing caller, the
	// deadline timer, or Close), so there are no standing workers to
	// leak.
	slots chan struct{}

	mu      sync.Mutex
	closed  bool
	pending []*batchReq
	spare   []*batchReq // double buffer: take() swaps it in, flushers return it
	rows    int         // queued row count across pending

	timerArmed atomic.Bool

	// Telemetry, exposed via InstrumentBatcher.
	reasons   [nFlushReasons]atomic.Int64
	requests  atomic.Int64
	rowsTotal atomic.Int64
	sizes     hist.Sync // rows per flush, on the shared log-bucket scale
	wait      hist.Sync // enqueue→flush latency
}

// BatcherConfig tunes the Batcher; zero values select the defaults.
type BatcherConfig struct {
	// MaxBatch is the queued-row threshold that forces a flush
	// (default DefaultBatchMaxRows).
	MaxBatch int
	// MaxWait bounds how long a queued request can wait for a flush
	// slot before the deadline timer flushes it (default
	// DefaultBatchWindow).
	MaxWait time.Duration
	// Workers bounds concurrent flushes (default GOMAXPROCS).
	Workers int
}

// Batching defaults: core.EstimateChunk rows is one full tree-major
// walk of the session path, 250µs is far below any request SLO yet long
// enough to coalesce a burst at high concurrency.
const (
	DefaultBatchMaxRows = core.EstimateChunk
	DefaultBatchWindow  = 250 * time.Microsecond
)

// ErrBatcherClosed reports an enqueue after Close. Session paths treat
// it as "fall back to the direct walk", so shutdown never strands or
// fails a caller.
var ErrBatcherClosed = errors.New("pme: batcher closed")

func (cfg BatcherConfig) withDefaults() BatcherConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultBatchMaxRows
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultBatchWindow
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

func newBatcher(cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	return &Batcher{cfg: cfg, slots: make(chan struct{}, cfg.Workers)}
}

// Config returns the resolved (defaulted) configuration.
func (b *Batcher) Config() BatcherConfig { return b.cfg }

// flushReason indexes the per-reason flush counters.
type flushReason uint8

const (
	flushSize flushReason = iota
	flushIdle
	flushDeadline
	flushBacklog
	flushDrain
	nFlushReasons
)

// FlushReasons lists the reason label values in counter order.
var FlushReasons = [nFlushReasons]string{"size", "idle", "deadline", "backlog", "drain"}

// batchReq is one caller's unit of queued work. The caller and the
// flusher each hold one reference; the second release returns it to the
// pool, which makes context-cancellation abandonment race-free — an
// abandoned request's buffers stay alive until the flusher is done
// writing them.
type batchReq struct {
	snap    *Snapshot
	rows    [][]float64
	backing []float64
	out     []float64
	enq     time.Time
	done    chan struct{}
	refs    atomic.Int32
}

var reqPool = sync.Pool{New: func() any { return new(batchReq) }}

func getReq(n, dim int) *batchReq {
	req := reqPool.Get().(*batchReq)
	need := n * dim
	if cap(req.backing) < need {
		req.backing = make([]float64, need)
	}
	backing := req.backing[:need]
	if cap(req.rows) < n {
		req.rows = make([][]float64, n)
	}
	req.rows = req.rows[:n]
	for i := 0; i < n; i++ {
		req.rows[i] = backing[i*dim : (i+1)*dim]
	}
	if cap(req.out) < n {
		req.out = make([]float64, n)
	}
	req.out = req.out[:n]
	req.done = make(chan struct{})
	req.refs.Store(2)
	return req
}

func (r *batchReq) release() {
	if r.refs.Add(-1) == 0 {
		r.snap = nil
		reqPool.Put(r)
	}
}

// discard returns a request that was never enqueued.
func (r *batchReq) discard() {
	r.snap = nil
	reqPool.Put(r)
}

// estimate encodes items against snap, queues them, and blocks until a
// flush delivers the CPMs into dst[:len(items)] or ctx is done.
// Returns ErrBatcherClosed (without blocking) after Close.
func (b *Batcher) estimate(ctx context.Context, snap *Snapshot, dst []float64, items []EstimateItem) error {
	n := len(items)
	if n == 0 {
		return nil
	}
	m := snap.Model
	req := getReq(n, m.Features.Dim())
	req.snap = snap
	for i := range items {
		items[i].encodeInto(req.rows[i], m.Features)
	}
	req.enq = time.Now()
	if err := b.enqueue(req); err != nil {
		req.discard()
		return err
	}
	b.requests.Add(1)
	b.rowsTotal.Add(int64(n))
	select {
	case <-req.done:
		copy(dst[:n], req.out[:n])
		req.release()
		return nil
	case <-ctx.Done():
		err := ctx.Err()
		req.release() // flusher's reference keeps the buffers alive
		return err
	}
}

func (b *Batcher) enqueue(req *batchReq) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBatcherClosed
	}
	b.pending = append(b.pending, req)
	b.rows += len(req.rows)
	full := b.rows >= b.cfg.MaxBatch
	b.mu.Unlock()

	reason := flushIdle
	if full {
		reason = flushSize
	}
	if !b.tryFlush(reason) {
		// Every slot is busy: rows coalesce behind the running flushes.
		// A finishing flusher loops over the backlog before releasing its
		// slot; the timer bounds the wait for the race where it doesn't.
		b.armTimer()
	}
	return nil
}

// take swaps the pending queue out under the lock — callers never block
// behind a running flush, they just append to the fresh buffer.
func (b *Batcher) take() ([]*batchReq, int) {
	b.mu.Lock()
	reqs, rows := b.pending, b.rows
	if b.spare != nil {
		b.pending, b.spare = b.spare[:0], nil
	} else {
		b.pending = nil
	}
	b.rows = 0
	b.mu.Unlock()
	return reqs, rows
}

// putBuffer returns a drained request slice for reuse as the spare.
func (b *Batcher) putBuffer(reqs []*batchReq) {
	clear(reqs)
	b.mu.Lock()
	if b.spare == nil {
		b.spare = reqs[:0]
	}
	b.mu.Unlock()
}

// tryFlush acquires a flush slot without blocking and, if it wins,
// drains the queue on the calling goroutine until empty. Reports
// whether a slot was acquired.
func (b *Batcher) tryFlush(reason flushReason) bool {
	select {
	case b.slots <- struct{}{}:
	default:
		return false
	}
	defer func() { <-b.slots }()
	for {
		reqs, rows := b.take()
		if len(reqs) == 0 {
			return true
		}
		b.flush(reqs, rows, reason)
		reason = flushBacklog
	}
}

// armTimer schedules the MaxWait deadline flush if one isn't already
// pending. The callback clears the armed flag before looking at the
// queue, so an enqueue that misses the old timer always arms a new one.
func (b *Batcher) armTimer() {
	if !b.timerArmed.CompareAndSwap(false, true) {
		return
	}
	time.AfterFunc(b.cfg.MaxWait, func() {
		b.timerArmed.Store(false)
		if b.QueueDepth() == 0 {
			return
		}
		if !b.tryFlush(flushDeadline) {
			b.armTimer()
		}
	})
}

// flush predicts one taken batch and wakes its callers. Requests are
// grouped into runs sharing a snapshot; each run is one merged
// tree-major walk over exactly one model version.
func (b *Batcher) flush(reqs []*batchReq, rows int, reason flushReason) {
	now := time.Now()
	for _, r := range reqs {
		b.wait.Record(now.Sub(r.enq))
	}
	b.reasons[reason].Add(1)
	b.sizes.Record(time.Duration(rows) * time.Second)
	for start := 0; start < len(reqs); {
		snap := reqs[start].snap
		end := start + 1
		for end < len(reqs) && reqs[end].snap == snap {
			end++
		}
		b.flushGroup(snap, reqs[start:end])
		start = end
	}
	b.putBuffer(reqs)
}

// flushScratch recycles one flush's merged matrix, class buffer and
// merged CPMs.
type flushScratch struct {
	rows [][]float64
	cls  []int
	cpms []float64
}

var scratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

func (b *Batcher) flushGroup(snap *Snapshot, group []*batchReq) {
	sc := scratchPool.Get().(*flushScratch)
	merged := sc.rows[:0]
	for _, r := range group {
		merged = append(merged, r.rows...)
	}
	if n := len(merged); cap(sc.cls) < n {
		sc.cls = make([]int, n)
		sc.cpms = make([]float64, n)
	}
	snap.Model.EstimateRowsInto(sc.cpms, sc.cls, merged)

	cpms := sc.cpms
	for _, r := range group {
		cpms = cpms[copy(r.out, cpms):]
		close(r.done)
		r.release()
	}

	sc.rows = merged[:0]
	scratchPool.Put(sc)
}

// Close stops accepting work, drains everything already queued (every
// waiting caller gets its result), and returns. Subsequent estimate
// calls fail fast with ErrBatcherClosed. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if already {
		return
	}
	// Hold every slot: once acquired, no flusher is running, and closed
	// blocks new enqueues, so one final drain leaves the queue empty.
	for i := 0; i < b.cfg.Workers; i++ {
		b.slots <- struct{}{}
	}
	for {
		reqs, rows := b.take()
		if len(reqs) == 0 {
			break
		}
		b.flush(reqs, rows, flushDrain)
	}
	for i := 0; i < b.cfg.Workers; i++ {
		<-b.slots
	}
}

// QueueDepth returns the rows currently queued and not yet taken by a
// flush.
func (b *Batcher) QueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rows
}

// FlushCount returns the lifetime flush count for one reason label
// (see FlushReasons).
func (b *Batcher) FlushCount(reason string) int64 {
	for i, name := range FlushReasons {
		if name == reason {
			return b.reasons[i].Load()
		}
	}
	return 0
}

// Requests returns the lifetime count of batched estimate calls.
func (b *Batcher) Requests() int64 { return b.requests.Load() }

// RowsBatched returns the lifetime count of rows routed through the
// batcher.
func (b *Batcher) RowsBatched() int64 { return b.rowsTotal.Load() }

// FlushSizes snapshots the rows-per-flush distribution (recorded on
// the shared log-bucket scale, one "second" per row).
func (b *Batcher) FlushSizes() hist.Histogram { return b.sizes.Snapshot() }

// QueueWait snapshots the enqueue→flush latency distribution.
func (b *Batcher) QueueWait() hist.Histogram { return b.wait.Snapshot() }
