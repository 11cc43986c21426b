// Package store is the pluggable persistence backbone behind a
// horizontally scaled PME fleet: everything that must be shared across
// replicas lives behind the Store interface — the published model
// lineage (blobs + versions), the bounded contribution pool, a hot-swap
// notification channel, and a TTL-leased singleton lock that elects the
// one replica allowed to retrain.
//
// Two backends ship with the repo:
//
//   - memstore (internal/store/memstore): the in-process default. A
//     single pme binary with no -store flag runs exactly as before —
//     same versioning, same pool bounds, same hot-swap semantics — just
//     routed through this interface.
//   - redisstore (internal/store/redisstore): a dependency-free RESP2
//     client over net.Conn for a real multi-process fleet, with
//     internal/store/redistest providing a miniature in-process RESP
//     server so unit tests and CI never need a Redis installation.
//
// Replicas layer on top (internal/pme.Replica): the local model
// registry becomes a read-through cache invalidated by SubscribeSwaps,
// publish = store write + notify, and the retrainer runs only while
// holding the store's lease.
//
// Consistency contract: PublishModel never moves the latest pointer
// backwards, and a publish fenced on a lease the publisher no longer
// holds is rejected with ErrLeaseLost — a replica that stalls
// mid-retrain cannot clobber a successor's newer model. Replicas
// additionally enforce version monotonicity locally, so a served ETag
// never regresses on any single replica even if the store misbehaves.
package store

import (
	"context"
	"errors"
	"time"
)

// ModelRecord is one published model version in store form: the model's
// compact blob (the bytes GET /v2/model serves, under ETag) plus the
// metadata replicas need to build a serving snapshot without retraining.
type ModelRecord struct {
	Version     int
	ETag        string
	Blob        []byte
	PublishedAt time.Time
	TrainSize   int
}

// PoolEntry is one pooled contribution in wire form. Payload is the
// contribution's JSON encoding; Trainable mirrors whether it carries a
// usable cleartext label so the store can maintain the retrain
// trigger's cheap counter without decoding payloads.
type PoolEntry struct {
	Payload   []byte
	Trainable bool
}

// SwapNotice announces one PublishModel to subscribers: enough to know
// a newer version exists and how stale the local cache is, not the
// model itself — subscribers read the record through LoadModel.
type SwapNotice struct {
	Version     int
	ETag        string
	PublishedAt time.Time
}

// Subscription is one replica's hot-swap feed. Notices may coalesce
// under backpressure (a slow subscriber sees the newest publish, not
// every intermediate one); C is closed when the subscription ends.
type Subscription interface {
	C() <-chan SwapNotice
	Close() error
}

// Fence ties a publish to a held lease: the store rejects the write
// with ErrLeaseLost unless Owner still holds Lease at publish time.
// This is what makes a lease expiry mid-retrain safe — the expired
// holder's late publish bounces instead of overwriting its successor's.
type Fence struct {
	Lease string
	Owner string
}

// Sentinel errors. Everything else a backend returns (network failures,
// protocol errors) is considered transient and retryable.
var (
	// ErrNoModel reports a LoadModel/LatestVersion before any publish.
	ErrNoModel = errors.New("store: no model published")
	// ErrStalePublish reports a PublishModel whose version is not ahead
	// of the store's latest — a lost allocation race or a very late
	// writer; the latest pointer was not moved.
	ErrStalePublish = errors.New("store: publish rejected as stale")
	// ErrLeaseLost reports a fenced operation whose lease is no longer
	// held by the fencing owner.
	ErrLeaseLost = errors.New("store: lease no longer held")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
)

// IsTransient reports whether err is worth retrying: anything that is
// not one of the store's semantic sentinels or a context cancellation.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	return !errors.Is(err, ErrNoModel) &&
		!errors.Is(err, ErrStalePublish) &&
		!errors.Is(err, ErrLeaseLost) &&
		!errors.Is(err, ErrClosed) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// Store is everything a PME replica shares with the rest of its fleet.
// Implementations must be safe for concurrent use. Methods take a
// context because every backend but memstore crosses a network.
type Store interface {
	// Name labels the backend in metrics ("mem", "redis").
	Name() string

	// --- model lineage ---

	// NextVersion allocates the next monotonically increasing model
	// version. Allocations are unique across the fleet; a crashed
	// publisher leaves a harmless gap.
	NextVersion(ctx context.Context) (int, error)

	// PublishModel stores rec and moves the latest pointer to it, then
	// fans a SwapNotice out to subscribers. rec.Version must be ahead of
	// the current latest (ErrStalePublish otherwise). A non-nil fence is
	// checked first: ErrLeaseLost if fence.Owner no longer holds
	// fence.Lease. A bounded lineage of recent versions is retained.
	PublishModel(ctx context.Context, rec ModelRecord, fence *Fence) error

	// LoadModel returns the latest published record (blob + version in
	// one round trip — pipelined on networked backends), or ErrNoModel.
	LoadModel(ctx context.Context) (*ModelRecord, error)

	// LatestVersion returns the latest version number and ETag without
	// fetching blobs — the cheap poll the watch loop falls back to when
	// pub/sub is degraded. ErrNoModel before the first publish.
	LatestVersion(ctx context.Context) (int, string, error)

	// --- contribution pool ---

	// AppendPool pools entries, dropping those beyond the max bound
	// (max <= 0 means unbounded). The bound is enforced best-effort
	// across concurrent appenders: occupancy is read once per call.
	AppendPool(ctx context.Context, entries []PoolEntry, max int) (accepted, dropped int, err error)

	// DrainPool removes and returns every pooled entry, transferring
	// ownership to the caller — the retrain loop's consumption step.
	DrainPool(ctx context.Context) ([]PoolEntry, error)

	// RestorePool puts drained entries back at the front of the pool —
	// the retrain loop's undo when training fails. Restores may
	// transiently exceed the append bound.
	RestorePool(ctx context.Context, entries []PoolEntry) error

	// PeekPool returns a copy of the pooled entries without removing
	// them (debug/ops surface).
	PeekPool(ctx context.Context) ([]PoolEntry, error)

	// PoolLen reports current occupancy and how many pooled entries are
	// trainable — the retrain trigger's cheap check.
	PoolLen(ctx context.Context) (n, trainable int, err error)

	// --- hot-swap fan-out ---

	// SubscribeSwaps opens a notification feed for PublishModel events.
	// The subscription lives until Close (or the store closes); backends
	// re-establish broken feeds internally where they can, but callers
	// should still poll LatestVersion at a coarse interval as a bound on
	// propagation when notices are lost.
	SubscribeSwaps(ctx context.Context) (Subscription, error)

	// --- singleton lease ---

	// AcquireLease takes the named lease for owner with the given TTL if
	// it is free or already expired. Returns false (no error) when
	// another owner holds it.
	AcquireLease(ctx context.Context, name, owner string, ttl time.Duration) (bool, error)

	// RenewLease extends the lease iff owner still holds it. Returns
	// false when the lease expired and was lost (or taken by another
	// owner) — the holder must stop retraining immediately.
	RenewLease(ctx context.Context, name, owner string, ttl time.Duration) (bool, error)

	// ReleaseLease frees the lease iff owner holds it (no-op otherwise).
	ReleaseLease(ctx context.Context, name, owner string) error

	// LeaseHolder reports the current live holder ("" when free).
	LeaseHolder(ctx context.Context, name string) (string, error)

	// --- health ---

	// Ping verifies the store is reachable.
	Ping(ctx context.Context) error

	// Close releases connections and ends subscriptions.
	Close() error
}
