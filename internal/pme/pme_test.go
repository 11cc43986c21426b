package pme

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// trainedModel builds a small but real model once for the whole package.
var (
	modelOnce sync.Once
	model     *core.Model
	modelErr  error
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 5})
		cat := weblog.NewCatalog(60, 30)
		cfg := campaign.A1Config(cat, 25, 9)
		cfg.Setups = cfg.Setups[:36]
		rep, err := campaign.NewEngine(eco).Run(cfg)
		if err != nil {
			modelErr = err
			return
		}
		p := core.NewPME(3)
		p.ForestSize = 10
		p.CVFolds, p.CVRuns = 5, 1
		model, modelErr = p.Train(rep.Records, core.TrainConfig{})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func TestRegistryPublishVersionsAndETags(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	if reg.Current() != nil {
		t.Fatal("empty registry should have no current snapshot")
	}

	s1, err := reg.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	// First publish keeps the model's own version.
	if s1.Version != m.Version {
		t.Errorf("first publish version = %d, want %d", s1.Version, m.Version)
	}
	// The caller's model must never be mutated.
	if m.Version != 1 {
		t.Errorf("Publish mutated the caller's model version to %d", m.Version)
	}

	s2, err := reg.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != s1.Version+1 {
		t.Errorf("second publish version = %d, want %d", s2.Version, s1.Version+1)
	}
	// Same weights, different version metadata → different bytes, so the
	// ETag must change: that is the §3.3 poll's refresh signal.
	if s2.ETag == s1.ETag {
		t.Error("republished model kept the same ETag")
	}
	if reg.Current() != s2 {
		t.Error("Current is not the latest publish")
	}
	if len(reg.History()) != 2 {
		t.Errorf("history length = %d, want 2", len(reg.History()))
	}
}

func TestRegistryRollback(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("rollback on empty registry: %v, want ErrNoHistory", err)
	}
	s1, _ := reg.Publish(m)
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("rollback with one version: %v, want ErrNoHistory", err)
	}

	// Publish a "bad" retrain, then roll back: versions keep moving
	// forward and the rolled-back snapshot serves the old weights.
	bad := m.CloneWithVersion(0, time.Time{})
	s2, _ := reg.Publish(bad)
	s3, err := reg.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if s3.Version != s2.Version+1 {
		t.Errorf("rollback version = %d, want %d", s3.Version, s2.Version+1)
	}
	if s3.Model.TrainedAt != reg.Current().Model.TrainedAt {
		t.Error("rollback did not become current")
	}
	_ = s1
}

func TestRegistryHistoryBound(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry(WithHistory(3))
	for i := 0; i < 6; i++ {
		if _, err := reg.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	h := reg.History()
	if len(h) != 3 {
		t.Fatalf("history length = %d, want 3", len(h))
	}
	if h[len(h)-1].Version != 6 {
		t.Errorf("newest retained version = %d, want 6", h[len(h)-1].Version)
	}
}

func TestPoolAccountingAndDeepCopy(t *testing.T) {
	p := NewPool(3)
	accepted, dropped, invalid := p.Add([]Contribution{
		{ADX: "MoPub", PriceCPM: 0.5},
		{ADX: "OpenX", Encrypted: true},
		{ADX: ""}, // invalid
		{ADX: "DoubleClick", PriceCPM: 1.2},
		{ADX: "Rubicon", PriceCPM: 2.0}, // beyond the bound
	})
	if accepted != 3 || dropped != 1 || invalid != 1 {
		t.Fatalf("accounting = %d/%d/%d, want 3/1/1", accepted, dropped, invalid)
	}
	if p.Len() != 3 || p.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", p.Len(), p.Dropped())
	}

	// Snapshot is detached: mutating it must not touch the pool.
	snap := p.Snapshot()
	snap[0].ADX = "mutated"
	if p.Snapshot()[0].ADX != "MoPub" {
		t.Error("Snapshot aliases pool memory")
	}

	drained := p.Drain()
	if len(drained) != 3 || p.Len() != 0 {
		t.Fatalf("drain moved %d, pool now %d", len(drained), p.Len())
	}
	// A post-drain Add must not alias the drained slice.
	p.Add([]Contribution{{ADX: "MoPub", PriceCPM: 9}})
	if drained[0].ADX != "MoPub" || drained[0].PriceCPM != 0.5 {
		t.Error("post-drain Add overwrote the drained slice")
	}

	p.Restore(drained)
	if p.Len() != 4 {
		t.Errorf("restore left pool at %d, want 4", p.Len())
	}
}

func TestCoreServiceEstimates(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0))
	ctx := context.Background()

	if _, err := svc.ModelSnapshot(ctx); !errors.Is(err, ErrNoModel) {
		t.Fatalf("ModelSnapshot before publish: %v, want ErrNoModel", err)
	}
	if _, err := svc.EstimateBatch(ctx, []EstimateItem{{ADX: "MoPub"}}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("EstimateBatch before publish: %v, want ErrNoModel", err)
	}
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.EstimateBatch(ctx, nil); !errors.Is(err, ErrEmptyBatch) {
		t.Errorf("empty batch: %v, want ErrEmptyBatch", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.EstimateBatch(cancelled, []EstimateItem{{ADX: "MoPub"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: %v, want context.Canceled", err)
	}
	svc.SetMaxBatch(2)
	var tooLarge *BatchTooLargeError
	_, err := svc.EstimateBatch(ctx, make([]EstimateItem, 3))
	if !errors.As(err, &tooLarge) || tooLarge.Max != 2 {
		t.Errorf("oversized batch: %v, want BatchTooLargeError{Max:2}", err)
	}
	svc.SetMaxBatch(DefaultMaxBatch)

	// Batch estimates must match applying the model directly.
	items := []EstimateItem{
		{ADX: "DoubleClick", City: "Madrid", OS: "Android", Origin: "app", Slot: "300x250", Hour: 14, Weekday: 2},
		{ADX: "MoPub", City: "Berlin", Origin: "web", Observed: time.Date(2016, 3, 4, 9, 0, 0, 0, time.UTC)},
	}
	res, err := svc.EstimateBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Current()
	if res.Version != snap.Version || res.ETag != snap.ETag {
		t.Errorf("result identifies %d/%s, want %d/%s", res.Version, res.ETag, snap.Version, snap.ETag)
	}
	want0 := m.EstimateCPM(m.Features.FromStrings(core.StringContext{
		ADX: "DoubleClick", City: "Madrid", OS: "Android", Origin: "app",
		Slot: "300x250", Hour: 14, Weekday: 2,
	}))
	if res.EstimatesCPM[0] != want0 {
		t.Errorf("estimate[0] = %v, want %v", res.EstimatesCPM[0], want0)
	}
	want1 := m.EstimateCPM(m.Features.FromStrings(core.StringContext{
		ADX: "MoPub", City: "Berlin", Origin: "web", Hour: 9, Weekday: int(time.Friday),
	}))
	if res.EstimatesCPM[1] != want1 {
		t.Errorf("estimate[1] = %v, want %v (Observed should supply hour/weekday)", res.EstimatesCPM[1], want1)
	}

	// A session pins its snapshot across a hot-swap.
	sess, err := svc.OpenEstimateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Estimate(&items[0])
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	if sess.Snapshot().Version == reg.Current().Version {
		t.Error("session snapshot moved with the hot-swap")
	}
	if after := sess.Estimate(&items[0]); after != before {
		t.Errorf("session estimate changed across hot-swap: %v → %v", before, after)
	}
}

// retrainContributions synthesizes n trainable cleartext observations
// with enough price spread for the 4-class discretizer.
func retrainContributions(n int) []Contribution {
	adxs := []string{"DoubleClick", "MoPub", "OpenX", "Rubicon"}
	cities := []string{"Madrid", "Berlin", "Paris", "London"}
	out := make([]Contribution, n)
	for i := range out {
		out[i] = Contribution{
			Observed: time.Date(2016, 6, 1, i%24, 0, 0, 0, time.UTC).AddDate(0, 0, i%28),
			ADX:      adxs[i%len(adxs)],
			City:     cities[(i/3)%len(cities)],
			Origin:   []string{"app", "web"}[i%2],
			Slot:     []string{"300x250", "320x50", "728x90"}[i%3],
			PriceCPM: 0.1 + float64(i%40)*0.11,
		}
	}
	return out
}

func TestRetrainOncePublishesNewVersion(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	pool := NewPool(0)
	base, err := reg.Publish(m)
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRetrainer(reg, pool, RetrainConfig{MinSamples: 40, ForestSize: 5, Seed: 7})
	if _, err := rt.RetrainOnce(context.Background()); !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("retrain on empty pool: %v, want ErrNotEnoughSamples", err)
	}

	pool.Add(retrainContributions(120))
	snap, err := rt.RetrainOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != base.Version+1 {
		t.Errorf("retrained version = %d, want %d", snap.Version, base.Version+1)
	}
	if snap.ETag == base.ETag {
		t.Error("retrain did not change the ETag")
	}
	if snap.Model.Metrics.TrainSize != 120 {
		t.Errorf("TrainSize = %d, want 120", snap.Model.Metrics.TrainSize)
	}
	// The feature layout and time-shift ride along unchanged, so the
	// retrained model stays wire-compatible with deployed clients.
	if snap.Model.Features != base.Model.Features {
		t.Error("retrain replaced the shared feature layout")
	}
	if snap.Model.TimeShift != base.Model.TimeShift {
		t.Error("retrain lost the time-shift coefficient")
	}
	if pool.Len() != 0 {
		t.Errorf("pool holds %d after successful retrain, want 0", pool.Len())
	}
	if rt.Retrains() != 1 {
		t.Errorf("Retrains() = %d, want 1", rt.Retrains())
	}

	// The new version must actually serve.
	svc := NewCore(reg, pool)
	res, err := svc.EstimateBatch(context.Background(), []EstimateItem{{ADX: "MoPub", Hour: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != snap.Version {
		t.Errorf("serving version %d after retrain, want %d", res.Version, snap.Version)
	}
}

func TestRetrainUnderSampledKeepsTrainablePool(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	pool := NewPool(0)
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	// 90 pooled entries but only 30 cleartext: the trainable trigger
	// (40) is unmet, so the tick must neither drain nor publish — the
	// trainable samples stay pooled for the next round.
	batch := retrainContributions(30)
	for i := 0; i < 60; i++ {
		batch = append(batch, Contribution{ADX: "MoPub", Encrypted: true})
	}
	pool.Add(batch)
	if got := pool.TrainableLen(); got != 30 {
		t.Fatalf("TrainableLen = %d, want 30", got)
	}

	rt := NewRetrainer(reg, pool, RetrainConfig{MinSamples: 40, ForestSize: 5, Seed: 7})
	if _, err := rt.RetrainOnce(context.Background()); !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("err = %v, want ErrNotEnoughSamples", err)
	}
	if pool.TrainableLen() != 30 {
		t.Errorf("trainable pool = %d after under-sampled tick, want 30 kept", pool.TrainableLen())
	}
	if reg.Current().Version != m.Version {
		t.Error("failed retrain must not publish")
	}

	// Once enough cleartext arrives, the retrain consumes the pool —
	// including the encrypted dead weight, which can never train and
	// must not accumulate (a mostly-encrypted fleet would otherwise
	// wedge the pool at its bound).
	pool.Add(retrainContributions(30))
	if _, err := rt.RetrainOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 0 {
		t.Errorf("pool holds %d after successful retrain, want 0", pool.Len())
	}
}

func TestRetrainLoopRun(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	pool := NewPool(0)
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	pool.Add(retrainContributions(100))

	rt := NewRetrainer(reg, pool, RetrainConfig{
		MinSamples: 40, ForestSize: 5, Seed: 7, Interval: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()

	deadline := time.After(5 * time.Second)
	for rt.Retrains() == 0 {
		select {
		case <-deadline:
			t.Fatal("retrain loop never fired")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v on cancellation, want nil", err)
	}
	if reg.Current().Version <= m.Version {
		t.Error("loop retrain did not publish a newer version")
	}
}
