package scaletest

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/scenario"
	"yourandvalue/internal/weblog"
)

// Shared live fixture: one self-hosted pmeserver (small campaign-trained
// model) for every test that needs real requests, built once per package
// run — training dominates the cost, so the tests share it.
var (
	hostOnce sync.Once
	hostFix  *SelfHost
	hostErr  error
)

func liveHost(tb testing.TB) *SelfHost {
	tb.Helper()
	hostOnce.Do(func() {
		hostFix, hostErr = StartSelfHost(7, 0)
	})
	if hostErr != nil {
		tb.Fatal(hostErr)
	}
	return hostFix
}

// testCfg is the small, fast base config the live tests share: an op
// budget ends the run, the duration is only a hang backstop.
func testCfg(tb testing.TB, strategy string, clients int, maxOps int64) Config {
	return Config{
		BaseURL:   liveHost(tb).BaseURL,
		Strategy:  strategy,
		Clients:   clients,
		Scale:     0.02,
		Seed:      11,
		BatchSize: 16,
		Duration:  30 * time.Second,
		MaxOps:    maxOps,
	}
}

// TestFeedDeliversWholeTrace: the generator feed must push the whole
// scenario trace through a one-slot channel (backpressure, not
// buffering), each user's requests in time order, and a cancelled
// consumer must stop it with ctx's error.
func TestFeedDeliversWholeTrace(t *testing.T) {
	wcfg := scenario.Default().TraceConfig(11, 0.02)
	out := make(chan weblog.Request, 1)
	done := make(chan error, 1)
	go func() {
		done <- feed(context.Background(), wcfg, out)
		close(out)
	}()
	n := 0
	last := make(map[int]time.Time)
	for r := range out {
		n++
		if r.Time.Before(last[r.UserID]) {
			t.Fatalf("user %d: request at %v after one at %v", r.UserID, r.Time, last[r.UserID])
		}
		last[r.UserID] = r.Time
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := len(weblog.Generate(wcfg).Requests); n != want {
		t.Errorf("fed %d requests, the batch trace has %d", n, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	out = make(chan weblog.Request)
	go func() { stopped <- feed(ctx, wcfg, out) }()
	<-out
	cancel()
	if err := <-stopped; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled feed returned %v, want context.Canceled", err)
	}
}

// TestRunEstimateHeavy: the harness must complete a budgeted run against
// a live server with zero request errors, populated per-endpoint
// histograms, a sampled peak heap, and a passing default SLO.
func TestRunEstimateHeavy(t *testing.T) {
	res, err := Run(context.Background(), testCfg(t, "estimate-heavy", 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Requests == 0 || res.Estimated == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	if res.Endpoints["estimate"].Count() == 0 {
		t.Error("estimate histogram is empty")
	}
	if res.MaxHeapBytes == 0 {
		t.Error("peak heap was never sampled")
	}
	if !res.SLO.OK() {
		t.Errorf("default SLO failed: %s", res.SLO)
	}
	if res.OpsPerSec() <= 0 {
		t.Errorf("ops/sec = %f", res.OpsPerSec())
	}
}

// TestRunEstimateBurst: the burst strategy must fan each cycle's items
// across several concurrent estimate sub-requests (so the estimate
// histogram records a multiple of the cycle count) with zero errors.
func TestRunEstimateBurst(t *testing.T) {
	cfg := testCfg(t, "estimate-burst", 2, 32)
	// Big event batches so every cycle carries enough estimate items to
	// actually split four ways.
	cfg.BatchSize = 128
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Estimated == 0 {
		t.Fatalf("no work done: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	// A non-burst profile issues at most one estimate request per cycle;
	// strictly more proves the concurrent fan-out ran.
	if got := int64(res.Endpoints["estimate"].Count()); got <= res.Ops {
		t.Errorf("estimate requests = %d for %d cycles; want > cycles (burst fan-out)", got, res.Ops)
	}
	if !res.SLO.OK() {
		t.Errorf("default SLO failed: %s", res.SLO)
	}
}

// TestRunModelPollETags: a pure poller fleet needs no event stream and
// must see 304s once its ETag cache warms up.
func TestRunModelPollETags(t *testing.T) {
	res, err := Run(context.Background(), testCfg(t, "model-poll", 2, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelPolls == 0 || res.NotModified == 0 {
		t.Fatalf("polls=%d not-modified=%d, want both > 0", res.ModelPolls, res.NotModified)
	}
	if res.Contributed != 0 || res.Estimated != 0 {
		t.Errorf("model-poll issued data-path requests: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
}

// TestRunPoolFull: a saturated contribution pool must surface as
// counted 507s, not as request errors.
func TestRunPoolFull(t *testing.T) {
	srv, err := pmeserver.New(liveHost(t).Server.Model())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxPool(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := testCfg(t, "contribute-heavy", 8, 64)
	cfg.BaseURL = ts.URL
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("pool-full runs must not count request errors, got %d", res.Errors)
	}
	if res.PoolFull == 0 {
		t.Fatal("expected 507 pool-full responses")
	}
}

// TestRunStreamHeavyHotSwap: the stream-heavy fleet drives
// POST /v2/estimate/stream while a publisher goroutine hot-swaps model
// versions through the server's registry — zero request errors, every
// estimate served, and the 'stream' histogram populated (CI runs the
// package under -race).
func TestRunStreamHeavyHotSwap(t *testing.T) {
	model := liveHost(t).Server.Model()
	registry := pme.NewRegistry()
	first, err := registry.Publish(model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := pmeserver.New(nil, pmeserver.WithRegistry(registry))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The hot-swapper runs for the whole load test.
	swapCtx, stopSwap := context.WithCancel(context.Background())
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for swapCtx.Err() == nil {
			if _, err := registry.Publish(model); err != nil {
				t.Errorf("publish during load: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	cfg := testCfg(t, "stream-heavy", 32, 192)
	cfg.BaseURL = ts.URL
	res, err := Run(context.Background(), cfg)
	stopSwap()
	<-swapDone
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors during concurrent hot-swap:\n%s", res.Errors, res)
	}
	if res.Estimated == 0 {
		t.Fatal("stream-heavy returned no estimates")
	}
	if res.Endpoints["stream"].Count() == 0 {
		t.Error("stream histogram recorded nothing")
	}
	if res.Endpoints["estimate"].Count() != 0 {
		t.Error("stream-heavy must not touch the batch-estimate endpoint")
	}
	if v := registry.Current().Version; v <= first.Version {
		t.Errorf("hot-swapper never advanced the version (current %d)", v)
	}
}

// TestRunChurnZeroLifetimes: with the lifetime bound forced to 1 cycle,
// the mixed fleet must churn constantly — including zero-length
// generations (join and leave without an op) — and still terminate.
func TestRunChurnZeroLifetimes(t *testing.T) {
	cfg := testCfg(t, "mixed", 2, 200)
	cfg.ChurnMaxLifetime = 1
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churns == 0 {
		t.Fatal("no churned generations at lifetime bound 1")
	}
	if res.ZeroLife == 0 {
		t.Error("no zero-length generations despite uniform [0,1] lifetimes")
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
}

// TestRunSLOViolationGate: an unachievable p99 ceiling must land in the
// result's SLO report (not the error path) and map to the dedicated
// exit code.
func TestRunSLOViolationGate(t *testing.T) {
	cfg := testCfg(t, "estimate-heavy", 2, 32)
	cfg.SLO = &SLO{MaxP99: 1 * time.Nanosecond, MaxErrorRate: 0}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLO.OK() {
		t.Fatal("1ns p99 ceiling passed")
	}
	if res.SLO.Violations[0].Gate != "p99" {
		t.Errorf("violations = %+v", res.SLO.Violations)
	}
	if code := ExitCode(nil, []*Result{res}); code != ExitSLOViolation {
		t.Errorf("exit code = %d, want %d", code, ExitSLOViolation)
	}
}

// TestRunRampMidCancel: cancelling the ramp from a step callback must
// return the steps completed so far plus context.Canceled, discarding
// the aborted partial step.
func TestRunRampMidCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	rep, err := RunRamp(ctx, testCfg(t, "estimate-heavy", 0, 0), RampConfig{
		Steps:        []int{1, 1, 1},
		StepDuration: 10 * time.Second,
		StepMaxOps:   16,
		OnStep: func(s StepResult) {
			if done++; done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Steps) != 1 {
		t.Fatalf("kept %d steps, want only the one completed before cancel", len(rep.Steps))
	}
	if rep.Steps[0].Ops == 0 {
		t.Error("the completed step recorded no work")
	}
}

// TestRunRampKneePlateau: identical consecutive steps (same client
// count, op-budgeted) cannot keep delivering +10% throughput, so the
// detector must flag a plateau knee at the first step.
func TestRunRampKneePlateau(t *testing.T) {
	rep, err := RunRamp(context.Background(), testCfg(t, "estimate-heavy", 0, 0), RampConfig{
		Steps:        []int{1, 1},
		StepDuration: 10 * time.Second,
		StepMaxOps:   16,
		KneeGain:     1000, // any real gain is below +100000%
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("ran %d steps, want 2", len(rep.Steps))
	}
	if rep.KneeClients != 1 || rep.KneeReason == "" {
		t.Errorf("knee = %d (%q), want the first step flagged", rep.KneeClients, rep.KneeReason)
	}
}
