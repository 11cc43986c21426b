package pme

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"yourandvalue/internal/core"
)

// DefaultMaxBatch bounds one EstimateBatch call; unbounded workloads
// use the streaming session path instead.
const DefaultMaxBatch = 4096

// Core is the canonical Service implementation: a Registry for the
// model lineage and a Pool for contributed observations, optionally
// fronted by a cross-request inference Batcher. Safe for concurrent
// use.
type Core struct {
	registry *Registry
	pool     PoolBackend
	maxBatch atomic.Int64
	batcher  *Batcher
}

// CoreOption configures a Core at construction.
type CoreOption func(*Core)

// WithBatcher routes EstimateBatch and session chunk estimates through
// a cross-request micro-batching scheduler (see Batcher). Results are
// bit-identical to the unbatched path.
func WithBatcher(cfg BatcherConfig) CoreOption {
	return func(c *Core) { c.batcher = newBatcher(cfg) }
}

// NewCore builds the service over a registry and a contribution pool
// backend (nil selects an in-process pool with the default bound).
func NewCore(reg *Registry, pool PoolBackend, opts ...CoreOption) *Core {
	if reg == nil {
		reg = NewRegistry()
	}
	if pool == nil {
		pool = NewPool(0)
	}
	c := &Core{registry: reg, pool: pool}
	c.maxBatch.Store(DefaultMaxBatch)
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetMaxBatch re-bounds EstimateBatch. The bound is atomic, so it is
// safe to re-tune under live traffic; n <= 0 is rejected (a service
// that can accept no batch at all is a configuration error, not a
// tuning choice).
func (c *Core) SetMaxBatch(n int) error {
	if n <= 0 {
		return fmt.Errorf("pme: SetMaxBatch(%d): bound must be positive", n)
	}
	c.maxBatch.Store(int64(n))
	return nil
}

// MaxBatch returns the per-call EstimateBatch bound.
func (c *Core) MaxBatch() int { return int(c.maxBatch.Load()) }

// Registry exposes the model lineage for publish/rollback wiring.
func (c *Core) Registry() *Registry { return c.registry }

// Pool exposes the contribution pool backend for retrain-loop wiring.
func (c *Core) Pool() PoolBackend { return c.pool }

// Batcher returns the attached inference batcher, or nil when the core
// runs unbatched.
func (c *Core) Batcher() *Batcher { return c.batcher }

// Close drains the attached batcher, if any: queued estimates complete
// and later ones fall back to the direct per-session walk, so no
// caller is ever stranded by shutdown.
func (c *Core) Close() error {
	if c.batcher != nil {
		c.batcher.Close()
	}
	return nil
}

// ModelSnapshot implements Service.
func (c *Core) ModelSnapshot(ctx context.Context) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := c.registry.Current()
	if snap == nil {
		return nil, ErrNoModel
	}
	return snap, nil
}

// EstimateBatch implements Service: every item is estimated against the
// single snapshot resolved at entry. With a batcher attached the rows
// join the shared submission queue and ride a merged tree-major walk;
// without one (or after batcher shutdown) they run the session-local
// chunk walk. Either way the results are bit-identical.
func (c *Core) EstimateBatch(ctx context.Context, items []EstimateItem) (*EstimateResult, error) {
	if len(items) == 0 {
		return nil, ErrEmptyBatch
	}
	if maxB := c.MaxBatch(); len(items) > maxB {
		return nil, &BatchTooLargeError{N: len(items), Max: maxB}
	}
	sess, err := c.OpenEstimateSession(ctx)
	if err != nil {
		return nil, err
	}
	res := &EstimateResult{
		Version:      sess.Snapshot().Version,
		ETag:         sess.Snapshot().ETag,
		EstimatesCPM: make([]float64, len(items)),
	}
	if err := sess.EstimateChunk(ctx, res.EstimatesCPM, items); err != nil {
		return nil, err
	}
	return res, nil
}

// OpenEstimateSession implements Service.
func (c *Core) OpenEstimateSession(ctx context.Context) (*EstimateSession, error) {
	snap, err := c.ModelSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	// vec is allocated lazily by Estimate: batched chunk estimates never
	// touch it.
	return &EstimateSession{snap: snap, b: c.batcher}, nil
}

// Contribute implements Service.
func (c *Core) Contribute(ctx context.Context, batch []Contribution) (ContributeResult, error) {
	if err := ctx.Err(); err != nil {
		return ContributeResult{}, err
	}
	accepted, dropped, invalid := c.pool.Add(batch)
	return ContributeResult{Accepted: accepted, Dropped: dropped, Invalid: invalid}, nil
}

// EstimateSession pins one model snapshot and one scratch vector for a
// sequence of estimates: under an unbounded NDJSON stream the memory
// cost stays one vector and one snapshot pointer no matter how many
// items flow through, and a concurrent registry hot-swap never changes
// the version mid-stream. Not safe for concurrent use.
type EstimateSession struct {
	snap *Snapshot
	vec  []float64
	b    *Batcher

	// Batch scratch (EstimateInto): an encode matrix and its class
	// buffer, sized to the largest chunk the session has estimated so
	// far (at most core.EstimateChunk rows).
	rows [][]float64
	cls  []int
}

// Snapshot returns the pinned model snapshot.
func (s *EstimateSession) Snapshot() *Snapshot { return s.snap }

// Estimate encodes one item into the reused scratch vector through the
// shared zero-allocation detect.Encoder path and returns its CPM.
func (s *EstimateSession) Estimate(it *EstimateItem) float64 {
	m := s.snap.Model
	if s.vec == nil {
		s.vec = make([]float64, m.Features.Dim())
	}
	it.encodeInto(s.vec, m.Features)
	return m.EstimateCPM(s.vec)
}

// EstimateInto estimates every item into dst[:len(items)], encoding up
// to core.EstimateChunk items at a time and estimating each chunk with
// one Model.EstimateRowsInto — item-for-item identical to Estimate, but
// the forest is walked tree-major across the chunk instead of being
// re-fetched per item. dst must have length >= len(items).
func (s *EstimateSession) EstimateInto(dst []float64, items []EstimateItem) {
	m := s.snap.Model
	if need := min(len(items), core.EstimateChunk); need > len(s.rows) {
		dim := m.Features.Dim()
		backing := make([]float64, need*dim)
		s.rows = make([][]float64, need)
		for i := range s.rows {
			s.rows[i] = backing[i*dim : (i+1)*dim]
		}
		s.cls = make([]int, need)
	}
	for base := 0; base < len(items); base += len(s.rows) {
		rows := s.rows[:min(len(s.rows), len(items)-base)]
		for i, row := range rows {
			items[base+i].encodeInto(row, m.Features)
		}
		m.EstimateRowsInto(dst[base:], s.cls, rows)
	}
}

// EstimateChunk estimates every item into dst[:len(items)] through the
// core's cross-request batcher when one is attached — the rows
// coalesce with concurrent callers' into shared walks against this
// session's pinned snapshot — and falls back to the session-local
// EstimateInto when there is no batcher or it has shut down. Results
// are bit-identical on every path; the only error is ctx expiring
// while queued.
func (s *EstimateSession) EstimateChunk(ctx context.Context, dst []float64, items []EstimateItem) error {
	if s.b != nil {
		err := s.b.estimate(ctx, s.snap, dst, items)
		if err == nil || !errors.Is(err, ErrBatcherClosed) {
			return err
		}
	}
	s.EstimateInto(dst, items)
	return nil
}
