package pme

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// secondModel trains a second, genuinely different model (different
// world seed and forest) so hot-swap tests can tell versions apart by
// their estimates, not just their version numbers.
var (
	secondOnce sync.Once
	second     *core.Model
	secondErr  error
)

func secondModel(t testing.TB) *core.Model {
	t.Helper()
	secondOnce.Do(func() {
		eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 77})
		cat := weblog.NewCatalog(60, 30)
		cfg := campaign.A1Config(cat, 25, 78)
		cfg.Setups = cfg.Setups[:36]
		rep, err := campaign.NewEngine(eco).Run(cfg)
		if err != nil {
			secondErr = err
			return
		}
		p := core.NewPME(3)
		p.ForestSize = 12
		p.CVFolds, p.CVRuns = 5, 1
		second, secondErr = p.Train(rep.Records, core.TrainConfig{})
	})
	if secondErr != nil {
		t.Fatal(secondErr)
	}
	return second
}

// directEstimates runs the unbatched session walk for m over items —
// the ground truth every batched result must match bit-for-bit.
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

// TestBatcherEquivalenceUnderHotSwap is the concurrency equivalence
// suite: K goroutines hammer the batched EstimateBatch while the
// registry hot-swaps models underneath; every response must be
// bit-identical to the direct walk of the model version it reports.
// Run under -race this also proves the queue, flush, and hot-swap
// machinery race-free.
func TestBatcherEquivalenceUnderHotSwap(t *testing.T) {
	m1, m2 := testModel(t), secondModel(t)
	items := flatItems(37)

	// Expected estimates per version, fixed before the hammering starts
	// (the map is read-only while goroutines run). Publishing clones the
	// model with new version metadata but shares the trained components,
	// so estimates depend only on which model backs a version.
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0), WithBatcher(BatcherConfig{
		MaxBatch: 64,
		MaxWait:  200 * time.Microsecond,
		Workers:  2,
	}))
	defer svc.Close()
	snap1, err := reg.Publish(m1)
	if err != nil {
		t.Fatal(err)
	}
	expected := map[int][]float64{
		snap1.Version:     directEstimates(m1, items),
		snap1.Version + 1: directEstimates(m2, items),
	}
	if same := func() bool {
		a, b := expected[snap1.Version], expected[snap1.Version+1]
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}(); same {
		t.Fatal("the two models estimate identically; the hot-swap check would be vacuous")
	}

	const K = 8
	const iters = 50
	ctx := context.Background()
	errCh := make(chan error, K)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				res, err := svc.EstimateBatch(ctx, items)
				if err != nil {
					errCh <- err
					return
				}
				want, ok := expected[res.Version]
				if !ok {
					errCh <- fmt.Errorf("response reports unknown version %d", res.Version)
					return
				}
				for j := range want {
					if res.EstimatesCPM[j] != want[j] {
						errCh <- fmt.Errorf("version %d item %d: batched %v, direct %v",
							res.Version, j, res.EstimatesCPM[j], want[j])
						return
					}
				}
			}
		}()
	}
	close(start)
	time.Sleep(time.Millisecond) // let the hammer ramp before the swap
	if _, err := reg.Publish(m2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	b := svc.Batcher()
	if b.Requests() == 0 {
		t.Fatal("no request ever went through the batcher")
	}
	t.Logf("batched %d requests / %d rows; flushes: size=%d idle=%d deadline=%d backlog=%d",
		b.Requests(), b.RowsBatched(),
		b.FlushCount("size"), b.FlushCount("idle"), b.FlushCount("deadline"), b.FlushCount("backlog"))
}

// TestBatcherStreamSessionEquivalence pins the second wired surface:
// chunk estimates through an open session coalesce with concurrent
// EstimateBatch traffic and still match the direct walk exactly.
func TestBatcherStreamSessionEquivalence(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0), WithBatcher(BatcherConfig{MaxBatch: 32, Workers: 2}))
	defer svc.Close()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	items := flatItems(301) // several chunks plus a ragged tail
	want := directEstimates(m, items)

	ctx := context.Background()
	sess, err := svc.OpenEstimateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(items))
	for base := 0; base < len(items); base += 100 {
		end := min(base+100, len(items))
		if err := sess.EstimateChunk(ctx, got[base:end], items[base:end]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: chunked %v, direct %v", i, got[i], want[i])
		}
	}
}

// TestBatcherDrainOnShutdown verifies Close leaves no caller blocked:
// goroutines in flight complete with correct results, and calls after
// Close fall back to the direct walk instead of failing.
func TestBatcherDrainOnShutdown(t *testing.T) {
	m := testModel(t)
	items := flatItems(9)
	want := directEstimates(m, items)

	reg := NewRegistry()
	// A huge MaxWait and one worker: if drain were broken, queued
	// requests would hang for a second and the test would time out.
	svc := NewCore(reg, NewPool(0), WithBatcher(BatcherConfig{
		MaxBatch: 1 << 20,
		MaxWait:  time.Second,
		Workers:  1,
	}))
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const K = 16
	var wg sync.WaitGroup
	errCh := make(chan error, K)
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := svc.EstimateBatch(ctx, items)
				if err != nil {
					errCh <- err
					return
				}
				for j := range want {
					if res.EstimatesCPM[j] != want[j] {
						errCh <- fmt.Errorf("item %d: %v != %v", j, res.EstimatesCPM[j], want[j])
						return
					}
				}
			}
		}()
	}
	time.Sleep(500 * time.Microsecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callers still blocked 10s after Close: drain left someone stranded")
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if d := svc.Batcher().QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after Close, want 0", d)
	}
	// Post-close estimates fall back to the direct path.
	res, err := svc.EstimateBatch(ctx, items)
	if err != nil {
		t.Fatalf("EstimateBatch after Close: %v", err)
	}
	for j := range want {
		if res.EstimatesCPM[j] != want[j] {
			t.Fatalf("post-close item %d: %v != %v", j, res.EstimatesCPM[j], want[j])
		}
	}
}

// TestBatcherCoalescesUnderSaturation forces the scenario batching
// exists for: every flush slot busy, many callers queue, and one
// deadline flush serves them all as a single merged walk.
func TestBatcherCoalescesUnderSaturation(t *testing.T) {
	m := testModel(t)
	items := flatItems(10)
	want := directEstimates(m, items)

	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0), WithBatcher(BatcherConfig{
		MaxBatch: 1 << 20, // never size-flush: the deadline must do it
		MaxWait:  2 * time.Millisecond,
		Workers:  1,
	}))
	defer svc.Close()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	b := svc.Batcher()

	// Occupy the only flush slot so every request queues behind it.
	b.slots <- struct{}{}

	const K = 10
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, K)
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.EstimateBatch(ctx, items)
			if err != nil {
				errCh <- err
				return
			}
			for j := range want {
				if res.EstimatesCPM[j] != want[j] {
					errCh <- fmt.Errorf("item %d: %v != %v", j, res.EstimatesCPM[j], want[j])
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueDepth() < K*len(items) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d, want %d", b.QueueDepth(), K*len(items))
		}
		time.Sleep(100 * time.Microsecond)
	}
	<-b.slots // free the slot; the armed deadline timer takes it
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := b.FlushCount("deadline"); got < 1 {
		t.Fatalf("deadline flushes = %d, want >= 1", got)
	}
	// The K queued requests must have ridden few merged flushes, not K
	// singles — and the flush-size histogram must have seen the merge.
	flushes := b.FlushCount("size") + b.FlushCount("idle") + b.FlushCount("deadline") + b.FlushCount("backlog")
	if flushes >= K {
		t.Fatalf("%d flushes for %d saturated requests: no coalescing happened", flushes, K)
	}
	sizes := b.FlushSizes()
	if maxRows := int(sizes.Max() / time.Second); maxRows < 2*len(items) {
		t.Fatalf("largest flush carried %d rows, want a merged >= %d", maxRows, 2*len(items))
	}
}

// TestBatcherSizeFlush pins the size trigger: a request crossing
// MaxBatch flushes immediately with reason "size".
func TestBatcherSizeFlush(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0), WithBatcher(BatcherConfig{MaxBatch: 16, Workers: 1}))
	defer svc.Close()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	items := flatItems(40) // one request, already past the 16-row bound
	want := directEstimates(m, items)
	res, err := svc.EstimateBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if res.EstimatesCPM[j] != want[j] {
			t.Fatalf("item %d: %v != %v", j, res.EstimatesCPM[j], want[j])
		}
	}
	if got := svc.Batcher().FlushCount("size"); got != 1 {
		t.Fatalf("size flushes = %d, want 1", got)
	}
}

// TestBatcherContextCancellation: a caller whose context dies while
// queued gets the context error promptly, and the flush that later
// processes its abandoned request must not corrupt anyone else (the
// refcounted buffers stay alive until the flusher is done).
func TestBatcherContextCancellation(t *testing.T) {
	m := testModel(t)
	items := flatItems(5)
	reg := NewRegistry()
	svc := NewCore(reg, NewPool(0), WithBatcher(BatcherConfig{
		MaxBatch: 1 << 20,
		MaxWait:  50 * time.Millisecond,
		Workers:  1,
	}))
	defer svc.Close()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	b := svc.Batcher()

	// Occupy the only flush slot so the cancelled request truly queues.
	release := make(chan struct{})
	b.slots <- struct{}{}
	go func() { <-release; <-b.slots }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(2 * time.Millisecond); cancel() }()
	_, err := svc.EstimateBatch(ctx, items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued estimate under cancelled ctx: %v, want context.Canceled", err)
	}
	close(release)
}

// TestSetMaxBatchConcurrent is the satellite race test: the bound is
// atomic, re-tunable under live traffic, and rejects nonsense.
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
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := svc.EstimateBatch(ctx, items)
				if err != nil {
					var tooLarge *BatchTooLargeError
					if errors.As(err, &tooLarge) {
						continue // a concurrent re-tune below 8 is fine
					}
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// BenchmarkBatcher compares goroutine-per-request EstimateBatch
// against the same traffic through the cross-request batcher, at
// concurrency 1 and 8. Sub-benchmark names avoid a trailing numeric
// segment (bench parsers strip a final "-N" as the GOMAXPROCS suffix).
func BenchmarkBatcher(b *testing.B) {
	m := testModel(b)
	items := flatItems(16)
	ctx := context.Background()

	run := func(b *testing.B, svc *Core, conc int) {
		b.Helper()
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
	}

	for _, conc := range []int{1, 8} {
		reg := NewRegistry()
		direct := NewCore(reg, NewPool(0))
		if _, err := reg.Publish(m); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("direct-c%d", conc), func(b *testing.B) { run(b, direct, conc) })

		breg := NewRegistry()
		batched := NewCore(breg, NewPool(0), WithBatcher(BatcherConfig{}))
		if _, err := breg.Publish(m); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("batched-c%d", conc), func(b *testing.B) { run(b, batched, conc) })
		batched.Close()
	}
}
