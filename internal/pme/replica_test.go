package pme

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"yourandvalue/internal/store"
	"yourandvalue/internal/store/memstore"
)

// fastRetry keeps test backoff in the microsecond range.
var fastRetry = RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond}

func TestReplicaPublishAdoptsAcrossReplicas(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	a := NewReplica(st, nil, WithReplicaID("a"), WithReplicaRetry(fastRetry))
	b := NewReplica(st, nil, WithReplicaID("b"), WithReplicaRetry(fastRetry))

	snap, err := a.Publish(testModel(t))
	if err != nil {
		t.Fatalf("a.Publish: %v", err)
	}
	if a.Current() == nil || a.Current().Version != snap.Version {
		t.Fatalf("publisher did not adopt its own publish")
	}
	if b.Current() != nil {
		t.Fatal("b has a model before syncing")
	}
	if err := b.SyncOnce(context.Background()); err != nil {
		t.Fatalf("b.SyncOnce: %v", err)
	}
	got := b.Current()
	if got == nil {
		t.Fatal("b adopted nothing")
	}
	if got.Version != snap.Version || got.ETag != snap.ETag {
		t.Fatalf("b adopted v%d etag %s, want v%d etag %s", got.Version, got.ETag, snap.Version, snap.ETag)
	}
	if got.Model == nil || got.Model.Version != snap.Version {
		t.Fatalf("adopted snapshot's decoded model is wrong: %+v", got.Model)
	}
	if string(got.Blob) != string(snap.Blob) {
		t.Fatal("adopted blob differs from published blob")
	}
	// The adopted model must actually estimate.
	core := NewCore(b.Registry(), NewPool(10))
	res, err := core.EstimateBatch(context.Background(), []EstimateItem{{ADX: "DoubleClick", City: "Madrid"}})
	if err != nil || len(res.EstimatesCPM) != 1 {
		t.Fatalf("estimating on adopted model: %v", err)
	}
	if res.ETag != snap.ETag {
		t.Fatalf("estimate served etag %s, want %s", res.ETag, snap.ETag)
	}
}

func TestReplicaWatchAdoptsOnNotice(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	a := NewReplica(st, nil, WithReplicaID("a"), WithReplicaRetry(fastRetry))
	b := NewReplica(st, nil, WithReplicaID("b"), WithReplicaRetry(fastRetry),
		WithPollInterval(20*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.Start(ctx)

	first, err := a.Publish(testModel(t))
	if err != nil {
		t.Fatalf("a.Publish: %v", err)
	}
	waitForVersion(t, b, first.Version)
	second, err := a.Publish(testModel(t))
	if err != nil {
		t.Fatalf("a.Publish again: %v", err)
	}
	if second.Version <= first.Version {
		t.Fatalf("second publish version %d not ahead of %d", second.Version, first.Version)
	}
	waitForVersion(t, b, second.Version)
	if b.Adoptions() < 2 {
		t.Fatalf("b.Adoptions() = %d, want >= 2", b.Adoptions())
	}
	if h := b.PropagationDurations(); h.Count() < 1 {
		t.Fatal("no swap propagation samples recorded for the second flip")
	}
}

func waitForVersion(t *testing.T, r *Replica, v int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur := r.Current(); cur != nil && cur.Version >= v {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never adopted version %d", r.ID(), v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaLeaseExpiryMidRetrain models the critical fleet race: the
// lease holder stalls mid-retrain, its lease expires, a second replica
// takes over and publishes — and the first holder's late fenced publish
// must bounce without moving the fleet's model.
func TestReplicaLeaseExpiryMidRetrain(t *testing.T) {
	clock := newFakeClock()
	st := memstore.New(memstore.WithClock(clock.Now))
	defer st.Close()
	ctx := context.Background()
	ttl := 10 * time.Second

	a := NewReplica(st, nil, WithReplicaID("a"), WithReplicaRetry(fastRetry))
	b := NewReplica(st, nil, WithReplicaID("b"), WithReplicaRetry(fastRetry))

	base, err := a.Publish(testModel(t)) // unfenced bootstrap
	if err != nil {
		t.Fatalf("bootstrap publish: %v", err)
	}
	if err := b.SyncOnce(ctx); err != nil {
		t.Fatalf("b.SyncOnce: %v", err)
	}

	// A takes the lease and begins "training".
	if ok, err := st.AcquireLease(ctx, DefaultLeaseName, "a", ttl); err != nil || !ok {
		t.Fatalf("a acquire = %v, %v", ok, err)
	}
	a.fenced.Store(true)

	// A stalls; the lease expires; B takes over and publishes.
	clock.Advance(ttl + time.Second)
	if ok, err := st.AcquireLease(ctx, DefaultLeaseName, "b", ttl); err != nil || !ok {
		t.Fatalf("b acquire after expiry = %v, %v", ok, err)
	}
	b.fenced.Store(true)
	bsnap, err := b.Publish(testModel(t))
	if err != nil {
		t.Fatalf("b fenced publish: %v", err)
	}

	// A wakes up and tries to publish its stale result: fenced out.
	if _, err := a.Publish(testModel(t)); !errors.Is(err, store.ErrLeaseLost) {
		t.Fatalf("a's late publish: err = %v, want ErrLeaseLost", err)
	}
	v, etag, err := st.LatestVersion(ctx)
	if err != nil || v != bsnap.Version || etag != bsnap.ETag {
		t.Fatalf("store latest = v%d %s (%v), want B's v%d %s", v, etag, err, bsnap.Version, bsnap.ETag)
	}
	// A's local registry never regressed past what it had.
	if cur := a.Current(); cur == nil || cur.Version != base.Version {
		t.Fatalf("a's local version = %+v, want the bootstrap v%d untouched", a.Current(), base.Version)
	}
}

// TestReplicaRenewalUnderClockSkew drives lease renewal against a store
// whose clock jumps far ahead of the replica's: the store's view wins,
// the holder's loop is cancelled, and the replica re-acquires cleanly.
func TestReplicaRenewalUnderClockSkew(t *testing.T) {
	clock := newFakeClock()
	st := memstore.New(memstore.WithClock(clock.Now))
	defer st.Close()

	// The replica's own clock never advances — maximal skew.
	frozen := clock.Now()
	r := NewReplica(st, nil,
		WithReplicaID("skewed"),
		WithReplicaRetry(fastRetry),
		WithLeaseTTL(90*time.Millisecond),
		WithReplicaClock(func() time.Time { return frozen }),
	)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sessions atomic.Int64
	resumed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.RunWithLease(ctx, func(fctx context.Context) error {
			n := sessions.Add(1)
			if n == 2 {
				close(resumed)
			}
			<-fctx.Done()
			return nil
		})
	}()

	// Wait for the first session, then jump the store's clock past the
	// TTL: the next renewal must fail by the store's reckoning even
	// though the replica's frozen clock says no time has passed.
	waitFor(t, func() bool { return r.LeaseHeld() })
	clock.Advance(time.Hour)
	select {
	case <-resumed: // lost, then re-acquired: a full recovery cycle
	case <-time.After(5 * time.Second):
		t.Fatal("replica never recovered the lease after skew-induced loss")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunWithLease: %v", err)
	}
	if got := sessions.Load(); got < 2 {
		t.Fatalf("lease sessions = %d, want >= 2 (loss + re-acquire)", got)
	}
}

// TestReplicaRollbackForwardOnly verifies rollback through the store is
// a fresh, strictly higher version of the predecessor's weights that
// other replicas converge on like any publish.
func TestReplicaRollbackForwardOnly(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	ctx := context.Background()
	a := NewReplica(st, nil, WithReplicaID("a"), WithReplicaRetry(fastRetry))
	b := NewReplica(st, nil, WithReplicaID("b"), WithReplicaRetry(fastRetry))

	if _, err := a.Rollback(); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("rollback on empty history: err = %v, want ErrNoHistory", err)
	}
	v1, err := a.Publish(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.Publish(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := a.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if rb.Version <= v2.Version {
		t.Fatalf("rollback version %d not ahead of %d — versions must only move forward", rb.Version, v2.Version)
	}
	if rb.Model.Version != rb.Version {
		t.Fatalf("rollback model stamped %d, want %d", rb.Model.Version, rb.Version)
	}
	if v, _, _ := st.LatestVersion(ctx); v != rb.Version {
		t.Fatalf("store latest = %d, want rollback version %d", v, rb.Version)
	}
	if err := b.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if cur := b.Current(); cur == nil || cur.Version != rb.Version {
		t.Fatalf("b converged on %+v, want rollback v%d", b.Current(), rb.Version)
	}
	_ = v1
}

// TestReplicaRollbackOfDecodedModels: a replica whose two versions were
// both adopted from the store — compact-decoded, sharing no forest with
// the leader's — rolls back to a strictly higher version that estimates bit for bit
// like the trained predecessor.
func TestReplicaRollbackOfDecodedModels(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	ctx := context.Background()
	leader := NewReplica(st, nil, WithReplicaID("leader"), WithReplicaRetry(fastRetry))
	follower := NewReplica(st, nil, WithReplicaID("follower"), WithReplicaRetry(fastRetry))

	v1, err := leader.Publish(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// The second version is a retrain on other data with three classes,
	// so it estimates differently from the first.
	pool := leader.Pool()
	pool.Add(retrainContributions(120))
	v2, err := NewRetrainerWith(leader, pool, RetrainConfig{
		MinSamples: 100, Classes: 3, ForestSize: 5, Seed: 11,
	}).RetrainOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if h := follower.reg.history; len(h) != 2 || h[0].Version != v1.Version || h[1].Version != v2.Version {
		t.Fatalf("follower history is not v%d, v%d", v1.Version, v2.Version)
	}
	for i, lead := range []*Snapshot{v1, v2} {
		if follower.reg.history[i].Model.FlatForest() == lead.Model.FlatForest() {
			t.Fatalf("adopted v%d shares the leader's forest; want a compact-decoded model", lead.Version)
		}
	}

	rb, err := follower.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if rb.Version <= v2.Version {
		t.Fatalf("rollback version %d not ahead of %d", rb.Version, v2.Version)
	}
	estimate := func(snap *Snapshot, it *EstimateItem) float64 {
		sess := &EstimateSession{snap: snap, vec: make([]float64, snap.Model.Features.Dim())}
		return sess.Estimate(it)
	}
	differs := false
	for i, it := range flatItems(300) {
		want := estimate(v1, &it)
		if got := estimate(rb, &it); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("item %d: rollback estimates %v, v%d estimated %v", i, got, v1.Version, want)
		}
		differs = differs || estimate(v2, &it) != want
	}
	if !differs {
		t.Fatal("v1 and v2 estimate alike; the rollback proves nothing")
	}
	if err := leader.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if cur := leader.Current(); cur.Version != rb.Version || cur.ETag != rb.ETag {
		t.Fatalf("leader serves v%d %s, want rollback v%d %s", cur.Version, cur.ETag, rb.Version, rb.ETag)
	}
}

// TestReplicaOutageServesCachedSnapshot covers the degraded mode: store
// down → readiness fails and retries are counted, but estimates keep
// serving the cached snapshot; recovery needs no restart.
func TestReplicaOutageServesCachedSnapshot(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	ctx := context.Background()
	r := NewReplica(st, nil, WithReplicaID("r"), WithReplicaRetry(fastRetry))

	if err := r.Ready(ctx); err == nil {
		t.Fatal("fresh replica with no model must not be ready")
	}
	snap, err := r.Publish(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Ready(ctx); err != nil {
		t.Fatalf("ready after publish: %v", err)
	}

	outage := errors.New("store down")
	st.SetFailure(outage)
	if err := r.Ready(ctx); err == nil {
		t.Fatal("replica must report unready during a store outage")
	}
	before := r.Retries()
	if err := r.SyncOnce(ctx); err == nil {
		t.Fatal("SyncOnce during outage should fail")
	}
	if r.Retries() <= before {
		t.Fatalf("transient failures must count retries: %d -> %d", before, r.Retries())
	}
	// The cached snapshot still serves.
	core := NewCore(r.Registry(), NewPool(10))
	res, err := core.EstimateBatch(ctx, []EstimateItem{{ADX: "MoPub"}})
	if err != nil || res.ETag != snap.ETag {
		t.Fatalf("estimate during outage: %v (etag %s, want %s)", err, res.ETag, snap.ETag)
	}

	st.SetFailure(nil)
	if err := r.Ready(ctx); err != nil {
		t.Fatalf("replica must recover readiness without restart: %v", err)
	}
}

func TestRetryPolicy(t *testing.T) {
	noSleep := func(context.Context, time.Duration) error { return nil }

	t.Run("transient exhausts attempts", func(t *testing.T) {
		calls, retries := 0, 0
		boom := errors.New("conn reset")
		err := (RetryPolicy{Attempts: 3, Sleep: noSleep}).Do(context.Background(),
			func() { retries++ },
			func() error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 3 || retries != 2 {
			t.Fatalf("err=%v calls=%d retries=%d; want boom, 3, 2", err, calls, retries)
		}
	})
	t.Run("semantic error returns immediately", func(t *testing.T) {
		calls := 0
		err := (RetryPolicy{Attempts: 5, Sleep: noSleep}).Do(context.Background(), nil,
			func() error { calls++; return store.ErrStalePublish })
		if !errors.Is(err, store.ErrStalePublish) || calls != 1 {
			t.Fatalf("err=%v calls=%d; want ErrStalePublish after 1 call", err, calls)
		}
	})
	t.Run("success after retry", func(t *testing.T) {
		calls := 0
		err := (RetryPolicy{Attempts: 3, Sleep: noSleep}).Do(context.Background(), nil,
			func() error {
				calls++
				if calls < 2 {
					return errors.New("flaky")
				}
				return nil
			})
		if err != nil || calls != 2 {
			t.Fatalf("err=%v calls=%d; want nil after 2 calls", err, calls)
		}
	})
	t.Run("cancelled context stops the loop", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := RetryPolicy{Attempts: 5}.Do(ctx, nil, func() error { return errors.New("flaky") })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// TestRetrainerOverReplica runs the full leased retrain path over a
// shared store: contributions pool via StorePool, the lease-holding
// replica drains and publishes, and a follower adopts the new version.
func TestRetrainerOverReplica(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	ctx := context.Background()

	leader := NewReplica(st, nil, WithReplicaID("leader"), WithReplicaRetry(fastRetry))
	follower := NewReplica(st, nil, WithReplicaID("follower"), WithReplicaRetry(fastRetry))

	base, err := leader.Publish(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	pool := leader.Pool()
	contribs := retrainContributions(120)
	if acc, drop, inv := pool.Add(contribs); acc != len(contribs) || drop != 0 || inv != 0 {
		t.Fatalf("pool.Add = %d, %d, %d; want %d, 0, 0", acc, drop, inv, len(contribs))
	}
	if got := pool.TrainableLen(); got != len(contribs) {
		t.Fatalf("TrainableLen = %d, want %d", got, len(contribs))
	}

	rt := NewRetrainerWith(leader, pool, RetrainConfig{
		MinSamples: 100, Classes: 3, ForestSize: 5, Seed: 11,
	})
	snap, err := rt.RetrainOnce(ctx)
	if err != nil {
		t.Fatalf("RetrainOnce over store: %v", err)
	}
	if snap.Version <= base.Version {
		t.Fatalf("retrain version %d not ahead of %d", snap.Version, base.Version)
	}
	if n, _, _ := st.PoolLen(ctx); n != 0 {
		t.Fatalf("store pool not drained: %d left", n)
	}
	if err := follower.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if cur := follower.Current(); cur == nil || cur.Version != snap.Version || cur.ETag != snap.ETag {
		t.Fatalf("follower on %+v, want retrained v%d", follower.Current(), snap.Version)
	}
}

// --- test clock ---

type fakeClock struct {
	mu  chan struct{}
	now time.Time
}

func newFakeClock() *fakeClock {
	c := &fakeClock{mu: make(chan struct{}, 1), now: time.Unix(1700000000, 0)}
	c.mu <- struct{}{}
	return c
}

func (c *fakeClock) Now() time.Time {
	<-c.mu
	defer func() { c.mu <- struct{}{} }()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	<-c.mu
	defer func() { c.mu <- struct{}{} }()
	c.now = c.now.Add(d)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
