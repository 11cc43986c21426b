package pme

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"yourandvalue/internal/core"
)

// DefaultMaxBatch bounds one EstimateBatch call; unbounded workloads
// use the streaming session path instead.
const DefaultMaxBatch = 4096

// Core is the canonical Service implementation: a Registry for the
// model lineage and a Pool for contributed observations. Safe for
// concurrent use.
type Core struct {
	registry *Registry
	pool     PoolBackend
	maxBatch atomic.Int64
}

// NewCore builds the service over a registry and a contribution pool
// backend (nil selects an in-process pool with the default bound).
func NewCore(reg *Registry, pool PoolBackend, _ ...CoreOption) *Core {
	if reg == nil {
		reg = NewRegistry()
	}
	if pool == nil {
		pool = NewPool(0)
	}
	c := &Core{registry: reg, pool: pool}
	c.maxBatch.Store(DefaultMaxBatch)
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

// sessionPool recycles EstimateBatch's sessions so a warm request
// reuses an encode matrix and class buffer instead of allocating them.
var sessionPool = sync.Pool{New: func() any { return new(EstimateSession) }}

// EstimateBatch implements Service: every item is estimated against the
// single snapshot resolved at entry, on a pooled session's chunk walk.
func (c *Core) EstimateBatch(ctx context.Context, items []EstimateItem) (*EstimateResult, error) {
	if len(items) == 0 {
		return nil, ErrEmptyBatch
	}
	if maxB := c.MaxBatch(); len(items) > maxB {
		return nil, &BatchTooLargeError{N: len(items), Max: maxB}
	}
	snap, err := c.ModelSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	res := &EstimateResult{
		Version:      snap.Version,
		ETag:         snap.ETag,
		EstimatesCPM: make([]float64, len(items)),
	}
	sess := sessionPool.Get().(*EstimateSession)
	sess.snap = snap
	sess.EstimateInto(res.EstimatesCPM, items)
	sess.snap = nil // a pooled session must not keep a retired model alive
	sessionPool.Put(sess)
	return res, nil
}

// OpenEstimateSession implements Service.
func (c *Core) OpenEstimateSession(ctx context.Context) (*EstimateSession, error) {
	snap, err := c.ModelSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	// vec is allocated lazily by Estimate: chunk estimates never touch
	// it.
	return &EstimateSession{snap: snap}, nil
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

	// Batch scratch (EstimateInto): an encode matrix and its class
	// buffer, sized to the largest chunk the session has estimated so
	// far (at most core.EstimateChunk rows) and rebuilt when the pinned
	// model's feature dimension differs from the matrix's.
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
	dim := m.Features.Dim()
	need := min(len(items), core.EstimateChunk)
	if need > len(s.rows) || len(s.rows) > 0 && len(s.rows[0]) != dim {
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
