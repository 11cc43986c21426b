// Package scaletest is the repo's load-testing subsystem, modeled on
// coder/coder's scaletest harness: a Runner is one unit of synthetic
// work, an ExecutionStrategy decides how a fleet of runs is launched
// (all at once, rate-paced, per-run timeouts), and a Harness owns the
// runs and collects their outcomes.
//
// On top of the harness sit named workload strategies (estimate-heavy,
// contribute-heavy, stream-heavy, model-poll, mixed — see workload.go)
// that drive a live pmeserver the way a deployed extension fleet would,
// per-strategy SLO gates (slo.go), a concurrency ramp driver that finds
// the knee of the throughput curve (ramp.go), a persisted BENCH_*.json
// artifact schema (bench.go), and request-level spans recorded into an
// internal/obs/trace Tracer (Config.Tracer).
package scaletest

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Runner is one unit of load-test work: a synthetic client's whole
// lifetime. The id names the run ("c17") for results and spans.
// Returning an error marks the run failed in the harness results;
// ordinary request failures should instead be counted in the client's
// stats so the SLO error budget sees them.
type Runner interface {
	Run(ctx context.Context, id string) error
}

// RunnerFunc adapts a plain function to the Runner interface.
type RunnerFunc func(ctx context.Context, id string) error

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, id string) error { return f(ctx, id) }

// ExecutionStrategy decides how a set of runs is launched. Execute must
// not return until every run it started has returned.
type ExecutionStrategy interface {
	Execute(ctx context.Context, fns []func(context.Context))
}

// ConcurrentExecution launches every run at once — the maximum-pressure
// default.
type ConcurrentExecution struct{}

// Execute implements ExecutionStrategy.
func (ConcurrentExecution) Execute(ctx context.Context, fns []func(context.Context)) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func(context.Context)) {
			defer wg.Done()
			fn(ctx)
		}(fn)
	}
	wg.Wait()
}

// RatePacedExecution staggers run starts Interval apart (still fully
// concurrent once started) so a huge fleet ramps in rather than
// thundering-herding the server in the first millisecond.
type RatePacedExecution struct {
	Interval time.Duration
}

// Execute implements ExecutionStrategy.
func (s RatePacedExecution) Execute(ctx context.Context, fns []func(context.Context)) {
	var wg sync.WaitGroup
	t := time.NewTicker(max(s.Interval, time.Millisecond))
	defer t.Stop()
	for i, fn := range fns {
		if i > 0 {
			select {
			case <-t.C:
			case <-ctx.Done():
				// Launch the rest immediately; each run sees the cancelled
				// ctx and exits, keeping Execute's "every run returns"
				// contract without waiting out the stagger.
			}
		}
		wg.Add(1)
		go func(fn func(context.Context)) {
			defer wg.Done()
			fn(ctx)
		}(fn)
	}
	wg.Wait()
}

// TimeoutExecution wraps another strategy, capping each run's lifetime.
type TimeoutExecution struct {
	Inner  ExecutionStrategy // nil = ConcurrentExecution
	PerRun time.Duration
}

// Execute implements ExecutionStrategy.
func (s TimeoutExecution) Execute(ctx context.Context, fns []func(context.Context)) {
	inner := s.Inner
	if inner == nil {
		inner = ConcurrentExecution{}
	}
	wrapped := make([]func(context.Context), len(fns))
	for i, fn := range fns {
		wrapped[i] = func(ctx context.Context) {
			tctx, cancel := context.WithTimeout(ctx, s.PerRun)
			defer cancel()
			fn(tctx)
		}
	}
	inner.Execute(ctx, wrapped)
}

// RunResult is one finished run's public record.
type RunResult struct {
	Name    string
	ID      string
	Started time.Time
	Elapsed time.Duration
	Err     error
}

// testRun is the harness's private per-run state.
type testRun struct {
	name, id string
	runner   Runner
	res      RunResult
}

// Harness owns a set of runs and executes them under one strategy. It
// is single-shot: build, AddRun, Run, Results.
type Harness struct {
	strategy ExecutionStrategy

	mu   sync.Mutex
	runs []*testRun
	ran  bool
}

// NewHarness builds a harness; a nil strategy means ConcurrentExecution.
func NewHarness(strategy ExecutionStrategy) *Harness {
	if strategy == nil {
		strategy = ConcurrentExecution{}
	}
	return &Harness{strategy: strategy}
}

// AddRun registers one runner under name/id. It panics after Run — a
// harness is not a work queue.
func (h *Harness) AddRun(name, id string, r Runner) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ran {
		panic("scaletest: AddRun after Harness.Run")
	}
	h.runs = append(h.runs, &testRun{name: name, id: id, runner: r})
}

// Run executes every registered run under the strategy and blocks until
// all return. A second call is an error.
func (h *Harness) Run(ctx context.Context) error {
	h.mu.Lock()
	if h.ran {
		h.mu.Unlock()
		return fmt.Errorf("scaletest: harness already run")
	}
	h.ran = true
	runs := h.runs
	h.mu.Unlock()

	fns := make([]func(context.Context), len(runs))
	for i, tr := range runs {
		fns[i] = func(ctx context.Context) {
			tr.res = RunResult{Name: tr.name, ID: tr.id, Started: time.Now()}
			tr.res.Err = tr.runner.Run(ctx, tr.id)
			tr.res.Elapsed = time.Since(tr.res.Started)
		}
	}
	h.strategy.Execute(ctx, fns)
	return nil
}

// Results returns every run's outcome, in registration order. Call
// after Run has returned.
func (h *Harness) Results() []RunResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]RunResult, len(h.runs))
	for i, tr := range h.runs {
		out[i] = tr.res
	}
	return out
}
