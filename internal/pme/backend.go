package pme

import (
	"context"

	"yourandvalue/internal/core"
)

// ModelSource abstracts where models come from and go to: the local
// *Registry (single-binary deployment, exactly the pre-fleet behavior)
// or a *Replica (fleet deployment — publishes land in the shared store
// first, then flow back into every replica's local registry). The
// retrainer and the boot pipeline publish through this interface so
// they are deployment-agnostic.
type ModelSource interface {
	// Current returns the serving snapshot, or nil before the first
	// publish. Must be cheap — it sits on the estimation path.
	Current() *Snapshot
	// Publish makes m the next model version and returns its snapshot.
	Publish(m *core.Model) (*Snapshot, error)
}

// QualitySink is the optional side of a ModelSource that keeps a
// quality record per published version: the boot pipeline publishes a
// model whose §5.4 cross-validation is still running and hands the run
// over through TrackQuality. *Registry and *Replica implement it.
type QualitySink interface {
	// TrackQuality records version's cross-validation as pending and
	// completes the record when cv's report arrives.
	TrackQuality(version int, cv CrossValidation)
}

// CrossValidation is a published model's cross-validation, still
// running; *core.Validation implements it.
type CrossValidation interface {
	Wait(ctx context.Context) (core.ModelMetrics, error)
}

// PoolBackend abstracts where contributions pool: in-process (*Pool) or
// the fleet's shared store (*StorePool). The service core and the
// retrainer only speak this interface.
type PoolBackend interface {
	// Add validates and pools batch, reporting accepted/dropped/invalid.
	Add(batch []Contribution) (accepted, dropped, invalid int)
	// Len is the current occupancy; TrainableLen counts pooled entries
	// with a usable cleartext label (the retrain trigger's cheap check).
	Len() int
	TrainableLen() int
	// Max/SetMax expose the capacity bound.
	Max() int
	SetMax(n int)
	// Drain transfers every pooled entry to the caller; Restore is the
	// retrain loop's undo, returning entries to the front of the pool.
	Drain() []Contribution
	Restore(batch []Contribution)
	// Snapshot returns a detached copy of the pooled entries.
	Snapshot() []Contribution
	// Lifetime accounting for dashboards.
	Accepted() int64
	Dropped() int64
	Drained() int64
}

var (
	_ ModelSource = (*Registry)(nil)
	_ ModelSource = (*Replica)(nil)
	_ QualitySink = (*Registry)(nil)
	_ QualitySink = (*Replica)(nil)

	_ CrossValidation = (*core.Validation)(nil)
	_ PoolBackend     = (*Pool)(nil)
	_ PoolBackend     = (*StorePool)(nil)
)
