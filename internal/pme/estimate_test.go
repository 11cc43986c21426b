package pme

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// trainSmall trains a small real model on its own world, so models from
// different seeds estimate differently.
func trainSmall(seed int64, trees int, cfg core.TrainConfig) (*core.Model, error) {
	eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: seed})
	acfg := campaign.A1Config(weblog.NewCatalog(60, 30), 25, seed+1)
	acfg.Setups = acfg.Setups[:36]
	rep, err := campaign.NewEngine(eco).Run(acfg)
	if err != nil {
		return nil, err
	}
	p := core.NewPME(3)
	p.ForestSize = trees
	p.CVFolds, p.CVRuns = 5, 1
	return p.Train(rep.Records, cfg)
}

// secondModel is a genuinely different model (another world seed and
// forest) with testModel's feature layout, so hot-swap tests can tell
// versions apart by their estimates, not just their version numbers.
// widerModel adds the publisher-identity features, so its Features.Dim()
// differs from the other two: a scratch matrix sized for one of them
// cannot encode for it.
var (
	secondOnce, widerOnce sync.Once
	second, wider         *core.Model
	secondErr, widerErr   error
)

func secondModel(t testing.TB) *core.Model {
	t.Helper()
	secondOnce.Do(func() { second, secondErr = trainSmall(77, 12, core.TrainConfig{}) })
	if secondErr != nil {
		t.Fatal(secondErr)
	}
	return second
}

func widerModel(t testing.TB) *core.Model {
	t.Helper()
	widerOnce.Do(func() { wider, widerErr = trainSmall(31, 8, core.TrainConfig{WithPublishers: true}) })
	if widerErr != nil {
		t.Fatal(widerErr)
	}
	return wider
}

// directEstimates runs a fresh session's walk for m over items — the
// ground truth every served result must match bit for bit.
func directEstimates(m *core.Model, items []EstimateItem) []float64 {
	reg := NewRegistry()
	snap, err := reg.Publish(m)
	if err != nil {
		panic(err)
	}
	sess := &EstimateSession{snap: snap}
	out := make([]float64, len(items))
	sess.EstimateInto(out, items)
	return out
}

// TestEstimateBatchEquivalenceUnderHotSwap hammers EstimateBatch from
// K goroutines while the registry swaps between three models, one of
// them with a different feature dimension. Every reply must be
// bit-identical to a fresh session's walk of the version it reports —
// a pooled session must neither serve a stale model nor reuse a scratch
// matrix built for another dimension. Under -race this also proves the
// session pool and the hot-swap race-free.
func TestEstimateBatchEquivalenceUnderHotSwap(t *testing.T) {
	models := []*core.Model{testModel(t), secondModel(t), widerModel(t)}
	if models[0].Features.Dim() == models[2].Features.Dim() {
		t.Fatal("widerModel has testModel's dimension; the scratch-rebuild check would be vacuous")
	}
	items := flatItems(37)
	want := make([][]float64, len(models))
	for i, m := range models {
		want[i] = directEstimates(m, items)
	}
	if slices.Equal(want[0], want[1]) {
		t.Fatal("the first two models estimate identically; the hot-swap check would be vacuous")
	}

	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0))
	snap, err := reg.Publish(models[0])
	if err != nil {
		t.Fatal(err)
	}
	// Version v1+k serves models[k%3]; served[k] records that some reply
	// reported it, so each swap waits until the previous version has
	// actually been served.
	v1 := snap.Version
	const K, swaps = 8, 12
	served := make([]chan struct{}, swaps+1)
	var once [swaps + 1]sync.Once
	for k := range served {
		served[k] = make(chan struct{})
	}

	ctx := context.Background()
	errCh := make(chan error, K)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := svc.EstimateBatch(ctx, items)
				if err != nil {
					errCh <- err
					return
				}
				k := res.Version - v1
				if k < 0 || k > swaps {
					errCh <- fmt.Errorf("response reports unknown version %d", res.Version)
					return
				}
				exp := want[k%len(models)]
				for j := range exp {
					if res.EstimatesCPM[j] != exp[j] {
						errCh <- fmt.Errorf("version %d item %d: served %v, direct %v",
							res.Version, j, res.EstimatesCPM[j], exp[j])
						return
					}
				}
				once[k].Do(func() { close(served[k]) })
			}
		}()
	}
	for k := 1; k <= swaps; k++ {
		select {
		case <-served[k-1]:
		case err := <-errCh:
			t.Fatal(err)
		}
		if _, err := reg.Publish(models[k%len(models)]); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-served[swaps]:
	case err := <-errCh:
		t.Fatal(err)
	}
	halt()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSessionEstimateBatchEquivalence runs streaming sessions and
// EstimateBatch calls side by side: chunked EstimateInto through an open
// session and pooled EstimateBatch must both match the direct walk
// exactly.
func TestSessionEstimateBatchEquivalence(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0))
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	items := flatItems(301) // several chunks plus a ragged tail
	want := directEstimates(m, items)

	ctx := context.Background()
	check := func(how string, got []float64) {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s item %d: %v, direct %v", how, i, got[i], want[i])
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			sess, err := svc.OpenEstimateSession(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]float64, len(items))
			for base := 0; base < len(items); base += 100 {
				end := min(base+100, len(items))
				sess.EstimateInto(got[base:end], items[base:end])
			}
			check("session", got)
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := svc.EstimateBatch(ctx, items)
				if err != nil {
					t.Error(err)
					return
				}
				check("EstimateBatch", res.EstimatesCPM)
			}
		}()
	}
	wg.Wait()
}

// TestEstimateBatchAllocs pins the pooled scratch: a warm EstimateBatch
// allocates only its EstimateResult and the estimates slice.
func TestEstimateBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0))
	if _, err := reg.Publish(testModel(t)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	items := flatItems(8)
	if a := testing.AllocsPerRun(50, func() {
		if _, err := svc.EstimateBatch(ctx, items); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("warm 8-item EstimateBatch: %v allocs/op, want <= 2", a)
	}
}

// TestSetMaxBatchConcurrent: the bound is atomic, re-tunable under live
// traffic, and rejects nonsense.
func TestSetMaxBatchConcurrent(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0))
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetMaxBatch(0); err == nil {
		t.Fatal("SetMaxBatch(0) accepted, want rejection")
	}
	if err := svc.SetMaxBatch(-5); err == nil {
		t.Fatal("SetMaxBatch(-5) accepted, want rejection")
	}
	if got := svc.MaxBatch(); got != DefaultMaxBatch {
		t.Fatalf("rejected SetMaxBatch mutated the bound to %d", got)
	}

	ctx := context.Background()
	items := flatItems(8)
	var tuners, callers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		tuners.Add(1)
		go func(g int) {
			defer tuners.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := svc.SetMaxBatch(8 + (g+i)%64); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 200; i++ {
				_, err := svc.EstimateBatch(ctx, items)
				var tooLarge *BatchTooLargeError
				if err != nil && !errors.As(err, &tooLarge) {
					t.Error(err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	tuners.Wait()
}

// BenchmarkEstimateBatch runs 16-item EstimateBatch calls from 1, 8 and
// 32 goroutines. Sub-benchmark names avoid a trailing numeric segment
// (bench parsers strip a final "-N" as the GOMAXPROCS suffix).
func BenchmarkEstimateBatch(b *testing.B) {
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0))
	m := testModel(b)
	if _, err := reg.Publish(m); err != nil {
		b.Fatal(err)
	}
	items := flatItems(16)
	ctx := context.Background()
	// The model's cross-validation folds run in the background after
	// Train; their allocations would land in the first sub-benchmark.
	if _, err := m.CV.Wait(ctx); err != nil {
		b.Fatal(err)
	}
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("c%d", conc), func(b *testing.B) {
			// One untimed call warms the session pool, so the first
			// sub-benchmark does not absorb its warm-up.
			if _, err := svc.EstimateBatch(ctx, items); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + conc - 1) / conc
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := svc.EstimateBatch(ctx, items); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
