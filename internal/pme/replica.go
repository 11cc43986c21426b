package pme

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/hist"
	"yourandvalue/internal/store"
)

// DefaultLeaseName is the fleet's retrainer-singleton lease.
const DefaultLeaseName = "retrain"

// replicaOpTimeout bounds store round trips made from interface methods
// that carry no context of their own (Publish via ModelSource).
const replicaOpTimeout = 15 * time.Second

// Replica glues one serving process to the fleet's shared store. The
// local Registry stays the lock-free serving surface — a single atomic
// pointer load on the estimate path — but becomes a read-through cache
// of the store's model lineage:
//
//   - Publish allocates a version from the store, writes the record
//     (fenced on the retrain lease while one is held), and only then
//     adopts it locally.
//   - Watch (Start) subscribes to the store's swap notices and adopts
//     newer versions as they land, with a coarse LatestVersion poll
//     bounding propagation when notices are lost.
//   - RunWithLease gates the retrain loop on a TTL lease so exactly one
//     replica trains at a time; an expired holder's late publish is
//     fenced out by the store.
//
// During a store outage the replica keeps serving estimates from its
// cached snapshot; only contribution intake and freshness degrade, and
// Ready reports unhealthy so balancers can drain it.
type Replica struct {
	st        store.Store
	reg       *Registry
	id        string
	leaseName string
	leaseTTL  time.Duration
	poll      time.Duration
	retry     RetryPolicy
	now       func() time.Time
	log       func(format string, args ...any)

	fenced    atomic.Bool // publishes carry the lease fence
	leaseHeld atomic.Bool
	retries   atomic.Int64 // transient store-op retries (all paths)
	adoptions atomic.Int64 // remote versions adopted via watch/sync

	// propagation records publish→local-flip lag for remotely published
	// versions (the pme_swap_propagation_seconds series).
	propagation hist.Sync

	poolOnce sync.Once
	pool     *StorePool
}

// ReplicaOption configures a Replica.
type ReplicaOption func(*Replica)

// WithReplicaID pins the replica's identity (lease ownership, logs).
// Default is a random "pme-xxxxxxxx".
func WithReplicaID(id string) ReplicaOption {
	return func(r *Replica) {
		if id != "" {
			r.id = id
		}
	}
}

// WithLeaseTTL sets the retrain lease TTL (default 10s; renewed at a
// third of it).
func WithLeaseTTL(d time.Duration) ReplicaOption {
	return func(r *Replica) {
		if d > 0 {
			r.leaseTTL = d
		}
	}
}

// WithLeaseName overrides the lease key (default DefaultLeaseName).
func WithLeaseName(name string) ReplicaOption {
	return func(r *Replica) {
		if name != "" {
			r.leaseName = name
		}
	}
}

// WithPollInterval sets the coarse version poll that bounds hot-swap
// propagation when pub/sub notices are lost (default 2s).
func WithPollInterval(d time.Duration) ReplicaOption {
	return func(r *Replica) {
		if d > 0 {
			r.poll = d
		}
	}
}

// WithReplicaRetry overrides the transient-error backoff policy.
func WithReplicaRetry(p RetryPolicy) ReplicaOption {
	return func(r *Replica) { r.retry = p }
}

// WithReplicaClock injects the replica's time source — lease edge-case
// tests use it to model clock skew against the store's clock.
func WithReplicaClock(now func() time.Time) ReplicaOption {
	return func(r *Replica) {
		if now != nil {
			r.now = now
		}
	}
}

// WithReplicaLog attaches a logger for watch/lease decisions.
func WithReplicaLog(fn func(format string, args ...any)) ReplicaOption {
	return func(r *Replica) { r.log = fn }
}

// NewReplica wires a replica over st, caching into reg (nil builds a
// fresh registry).
func NewReplica(st store.Store, reg *Registry, opts ...ReplicaOption) *Replica {
	if reg == nil {
		reg = NewRegistry()
	}
	r := &Replica{
		st:        st,
		reg:       reg,
		id:        "pme-" + randomHex(4),
		leaseName: DefaultLeaseName,
		leaseTTL:  10 * time.Second,
		poll:      2 * time.Second,
		now:       time.Now,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := cryptorand.Read(b); err != nil {
		return "00000000"[:2*n]
	}
	return hex.EncodeToString(b)
}

// ID returns the replica identity (the lease owner string).
func (r *Replica) ID() string { return r.id }

// Registry returns the local read-through model cache.
func (r *Replica) Registry() *Registry { return r.reg }

// Store returns the underlying shared store.
func (r *Replica) Store() store.Store { return r.st }

// Pool returns the fleet-shared contribution pool backend, bound at
// DefaultMaxPool and sharing this replica's retry policy and counter.
func (r *Replica) Pool() *StorePool {
	r.poolOnce.Do(func() {
		r.pool = NewStorePool(r.st, 0,
			WithStorePoolRetry(r.retry),
			withStorePoolRetryHook(func() { r.retries.Add(1) }))
	})
	return r.pool
}

// Retries returns the lifetime count of transient store-operation
// retries across every replica path (model fetch, pool ops, publish).
func (r *Replica) Retries() int64 { return r.retries.Load() }

// Adoptions returns how many remotely published versions this replica
// has adopted through the watch/sync path.
func (r *Replica) Adoptions() int64 { return r.adoptions.Load() }

// LeaseHeld reports whether this replica currently holds the retrain
// lease.
func (r *Replica) LeaseHeld() bool { return r.leaseHeld.Load() }

// PropagationDurations returns the distribution of publish→local-flip
// lag for remotely published versions.
func (r *Replica) PropagationDurations() hist.Histogram { return r.propagation.Snapshot() }

func (r *Replica) logf(format string, args ...any) {
	if r.log != nil {
		r.log(format, args...)
	}
}

func (r *Replica) countRetry() { r.retries.Add(1) }

// Current implements ModelSource (a single atomic pointer load).
func (r *Replica) Current() *Snapshot { return r.reg.Current() }

// TrackQuality implements QualitySink on the local registry: the
// record stays with the replica that trained the version.
func (r *Replica) TrackQuality(version int, cv CrossValidation) {
	r.reg.TrackQuality(version, cv)
}

// Publish implements ModelSource: allocate a fleet-unique version from
// the store, write the record (fenced while a lease session is active),
// then adopt locally. ErrStalePublish and ErrLeaseLost surface to the
// caller — for the retrainer that means "count a failure, restore the
// pool", exactly what a fenced-out late publish should do.
func (r *Replica) Publish(m *core.Model) (*Snapshot, error) {
	if m == nil {
		return nil, errors.New("pme: cannot publish a nil model")
	}
	ctx, cancel := context.WithTimeout(context.Background(), replicaOpTimeout)
	defer cancel()
	var version int
	if err := r.retry.Do(ctx, r.countRetry, func() error {
		var err error
		version, err = r.st.NextVersion(ctx)
		return err
	}); err != nil {
		return nil, fmt.Errorf("pme: allocating model version: %w", err)
	}
	// A pre-versioned model (bootstrap of a trained artifact) keeps its
	// advertised version when it is ahead; the store seeds its allocator
	// past it so later allocations stay unique.
	if m.Version > version {
		version = m.Version
	}
	snap, err := makeSnapshot(m, version, r.now())
	if err != nil {
		return nil, err
	}
	rec := store.ModelRecord{
		Version:     snap.Version,
		ETag:        snap.ETag,
		Blob:        snap.Blob,
		PublishedAt: snap.PublishedAt,
		TrainSize:   snap.Model.Metrics.TrainSize,
	}
	var fence *store.Fence
	if r.fenced.Load() {
		fence = &store.Fence{Lease: r.leaseName, Owner: r.id}
	}
	if err := r.retry.Do(ctx, r.countRetry, func() error {
		return r.st.PublishModel(ctx, rec, fence)
	}); err != nil {
		return nil, err
	}
	r.reg.Adopt(snap)
	return snap, nil
}

// Rollback re-publishes the serving snapshot's predecessor through the
// store as a new, strictly higher version — versions only move forward,
// fleet-wide, so every replica converges on the rollback through the
// same adoption path as any other publish.
func (r *Replica) Rollback() (*Snapshot, error) {
	prev, err := r.reg.predecessor()
	if err != nil {
		return nil, err
	}
	return r.Publish(prev)
}

// Ready reports fleet-aware readiness: healthy only once a model
// version has been seen AND the store answers. An outage flips a
// serving replica to unready (balancers drain it; estimates still work
// from the cached snapshot) and readiness returns when the store does —
// no restart needed.
func (r *Replica) Ready(ctx context.Context) error {
	if r.reg.Current() == nil {
		return errors.New("pme: no model version seen from store yet")
	}
	if err := r.st.Ping(ctx); err != nil {
		return fmt.Errorf("pme: store unreachable: %w", err)
	}
	return nil
}

// SyncOnce fetches the store's latest record and adopts it if it is
// ahead of the local cache. ErrNoModel (nothing published yet) is not
// an error worth surfacing to watch loops but is returned for callers
// that care.
func (r *Replica) SyncOnce(ctx context.Context) error {
	var rec *store.ModelRecord
	if err := r.retry.Do(ctx, r.countRetry, func() error {
		var err error
		rec, err = r.st.LoadModel(ctx)
		return err
	}); err != nil {
		return err
	}
	cur := r.reg.Current()
	if cur != nil && rec.Version <= cur.Version {
		return nil
	}
	m, err := core.DecodeCompactModel(rec.Blob)
	if err != nil {
		return fmt.Errorf("pme: decoding model version %d from store: %w", rec.Version, err)
	}
	snap := &Snapshot{
		Model:       m,
		Version:     rec.Version,
		ETag:        rec.ETag,
		Blob:        rec.Blob,
		PublishedAt: rec.PublishedAt,
	}
	if r.reg.Adopt(snap) {
		r.adoptions.Add(1)
		// Count propagation only for flips of an already-serving replica;
		// a cold bootstrap adopting an hours-old model is not a swap.
		if cur != nil {
			lag := r.now().Sub(rec.PublishedAt)
			if lag < 0 {
				lag = 0
			}
			r.propagation.Record(lag)
		}
		r.logf("pme: adopted model version %d (etag %s) from store", snap.Version, snap.ETag)
	}
	return nil
}

// Start launches the watch loop: adopt the current model, then follow
// swap notices with the coarse poll as the propagation bound. Returns
// immediately; the loop ends when ctx is cancelled.
func (r *Replica) Start(ctx context.Context) {
	go r.watch(ctx)
}

func (r *Replica) watch(ctx context.Context) {
	if err := r.SyncOnce(ctx); err != nil && !errors.Is(err, store.ErrNoModel) {
		r.logf("pme: initial model sync: %v", err)
	}
	var notices <-chan store.SwapNotice
	if sub, err := r.st.SubscribeSwaps(ctx); err == nil {
		notices = sub.C()
		defer sub.Close()
	} else {
		r.logf("pme: swap subscription unavailable, polling only: %v", err)
	}
	t := time.NewTicker(r.poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case n, ok := <-notices:
			if !ok {
				notices = nil // poll still bounds propagation
				continue
			}
			if cur := r.reg.Current(); cur == nil || n.Version > cur.Version {
				if err := r.SyncOnce(ctx); err != nil && !errors.Is(err, store.ErrNoModel) {
					r.logf("pme: syncing after swap notice v%d: %v", n.Version, err)
				}
			}
		case <-t.C:
			v, _, err := r.st.LatestVersion(ctx)
			if err != nil {
				continue // transient or nothing published; next tick retries
			}
			if cur := r.reg.Current(); cur == nil || v > cur.Version {
				if err := r.SyncOnce(ctx); err != nil && !errors.Is(err, store.ErrNoModel) {
					r.logf("pme: syncing after version poll v%d: %v", v, err)
				}
			}
		}
	}
}

// RunWithLease runs fn only while holding the fleet's retrain lease,
// renewing it at a third of the TTL. When the lease is lost (expiry
// during a stall, a competing acquirer after skew) fn's context is
// cancelled and the loop goes back to trying to acquire; publishes made
// by a deposed holder are rejected by the store's fence regardless.
// Returns nil when ctx ends; fn's error ends the loop early.
func (r *Replica) RunWithLease(ctx context.Context, fn func(ctx context.Context) error) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		acquired, err := r.st.AcquireLease(ctx, r.leaseName, r.id, r.leaseTTL)
		if err != nil || !acquired {
			if err != nil && !store.IsTransient(err) && ctx.Err() == nil {
				return fmt.Errorf("pme: acquiring retrain lease: %w", err)
			}
			if err := sleepCtx(ctx, r.leaseTTL/3); err != nil {
				return nil
			}
			continue
		}
		r.logf("pme: %s acquired retrain lease %q (ttl %s)", r.id, r.leaseName, r.leaseTTL)
		err = r.holdAndRun(ctx, fn)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		r.logf("pme: %s lost retrain lease %q, standing by", r.id, r.leaseName)
	}
}

// holdAndRun runs fn under an active lease session: renewal in the
// background, fenced publishes, and cancellation the moment the lease
// is known lost.
func (r *Replica) holdAndRun(ctx context.Context, fn func(ctx context.Context) error) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	r.fenced.Store(true)
	r.leaseHeld.Store(true)
	defer func() {
		r.leaseHeld.Store(false)
		r.fenced.Store(false)
	}()

	var lost atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(r.leaseTTL / 3)
		defer t.Stop()
		lastOK := r.now()
		for {
			select {
			case <-sub.Done():
				return
			case <-t.C:
				ok, err := r.st.RenewLease(sub, r.leaseName, r.id, r.leaseTTL)
				switch {
				case err != nil:
					// Transient: the lease may still be live server-side.
					// Only once a full TTL has passed without a confirmed
					// renewal must the holder assume the worst and stop.
					if r.now().Sub(lastOK) >= r.leaseTTL {
						lost.Store(true)
						cancel()
						return
					}
				case !ok:
					lost.Store(true)
					cancel()
					return
				default:
					lastOK = r.now()
				}
			}
		}
	}()

	err := fn(sub)
	cancel()
	wg.Wait()
	if !lost.Load() {
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = r.st.ReleaseLease(rctx, r.leaseName, r.id)
		rcancel()
	}
	return err
}
