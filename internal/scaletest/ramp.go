package scaletest

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RampConfig drives a concurrency ramp: the same workload run at a
// stepped series of client counts, hunting the knee of the throughput
// curve — the point past which more clients stop buying throughput (or
// start buying only latency).
type RampConfig struct {
	// Steps are the client counts, in order (e.g. 2,4,8,16). Use
	// GeometricSteps to build a doubling series.
	Steps []int
	// StepDuration caps each step's wall clock (default 5s).
	StepDuration time.Duration
	// StepMaxOps caps each step's total op cycles when positive.
	StepMaxOps int64
	// KneeGain is the minimum fractional ops/sec improvement a step must
	// deliver over its predecessor to count as "still scaling"
	// (default 0.10 = +10%).
	KneeGain float64
	// KneeP99Factor flags a latency knee when a step's p99 exceeds the
	// first step's p99 by this factor (default 4).
	KneeP99Factor float64
	// OnStep, when set, observes each finished step (progress logging;
	// tests use it to cancel mid-ramp).
	OnStep func(StepResult)
}

// StepResult is one ramp step in export form.
type StepResult struct {
	Clients   int     `json:"clients"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50NS     int64   `json:"p50_ns"`
	P95NS     int64   `json:"p95_ns"`
	P99NS     int64   `json:"p99_ns"`
	Errors    int64   `json:"errors"`
	// Result is the step's full run report (not serialized; the BENCH
	// artifact carries the summarized fields above).
	Result *Result `json:"-"`
}

// RampReport is the whole ramp: the curve plus the detected knee.
type RampReport struct {
	Strategy string       `json:"strategy"`
	Scenario string       `json:"scenario"`
	Steps    []StepResult `json:"steps"`
	// KneeClients is the last client count that was still scaling; 0
	// means no knee was found (the curve was still climbing at the end).
	KneeClients int    `json:"knee_clients,omitempty"`
	KneeReason  string `json:"knee_reason,omitempty"`
}

// String renders the ramp curve with the knee annotated.
func (r *RampReport) String() string {
	out := fmt.Sprintf("ramp %s/%s:\n", r.Strategy, r.Scenario)
	for _, s := range r.Steps {
		marker := ""
		if r.KneeClients == s.Clients {
			marker = "  <- knee"
		}
		out += fmt.Sprintf("  %5d clients  %8.1f ops/s  p50=%-10s p99=%-10s errors=%d%s\n",
			s.Clients, s.OpsPerSec,
			time.Duration(s.P50NS).Round(time.Microsecond),
			time.Duration(s.P99NS).Round(time.Microsecond),
			s.Errors, marker)
	}
	if r.KneeClients > 0 {
		out += "  knee: " + r.KneeReason + "\n"
	} else if len(r.Steps) > 0 {
		out += "  knee: not reached (still scaling at the last step)\n"
	}
	return out
}

// GeometricSteps builds the doubling series start, 2*start, ... up to
// and including limit (start and limit are clamped to >= 1; limit is
// always the final step even off the doubling grid).
func GeometricSteps(start, limit int) []int {
	if start < 1 {
		start = 1
	}
	if limit < start {
		limit = start
	}
	var steps []int
	for n := start; n < limit; n *= 2 {
		steps = append(steps, n)
	}
	return append(steps, limit)
}

// RunRamp executes cfg's workload once per ramp step, each step
// generating its trace afresh (same scenario, same seed — every step
// replays the same world). Cancellation mid-ramp returns the completed steps together
// with ctx's error; the aborted partial step is discarded. Per-step SLO
// evaluation lands on each step's Result as in Run.
func RunRamp(ctx context.Context, cfg Config, rc RampConfig) (*RampReport, error) {
	if len(rc.Steps) == 0 {
		return nil, errors.New("scaletest: ramp needs at least one step")
	}
	for _, n := range rc.Steps {
		if n < 1 {
			return nil, fmt.Errorf("scaletest: ramp step %d is not a client count", n)
		}
	}
	if rc.StepDuration <= 0 {
		rc.StepDuration = defaultStepDuration
	}
	if rc.KneeGain <= 0 {
		rc.KneeGain = 0.10
	}
	if rc.KneeP99Factor <= 0 {
		rc.KneeP99Factor = 4
	}
	prof, err := cfg.profile()
	if err != nil {
		return nil, err
	}
	scenarioName := cfg.Scenario
	if scenarioName == "" {
		scenarioName = "baseline"
	}

	rep := &RampReport{Strategy: prof.Name, Scenario: scenarioName}
	for i, n := range rc.Steps {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		stepCfg := cfg
		stepCfg.Clients = n
		stepCfg.Duration = rc.StepDuration
		stepCfg.MaxOps = rc.StepMaxOps
		res, err := Run(ctx, stepCfg)
		if err != nil {
			return rep, err
		}
		if ctx.Err() != nil {
			// The step was cut short by the ramp-wide cancellation, not
			// its own step duration — its numbers are not comparable, so
			// report only the completed steps.
			return rep, ctx.Err()
		}
		merged := res.MergedHist()
		step := StepResult{
			Clients:   n,
			Ops:       res.Ops,
			OpsPerSec: res.OpsPerSec(),
			P50NS:     int64(merged.Quantile(0.50)),
			P95NS:     int64(merged.Quantile(0.95)),
			P99NS:     int64(merged.Quantile(0.99)),
			Errors:    res.Errors,
			Result:    res,
		}
		rep.Steps = append(rep.Steps, step)

		// Knee detection: the first step that either stops improving
		// throughput or blows up tail latency marks its predecessor as
		// the knee.
		if i > 0 && rep.KneeClients == 0 {
			prev := rep.Steps[i-1]
			first := rep.Steps[0]
			switch {
			case step.OpsPerSec < prev.OpsPerSec*(1+rc.KneeGain):
				rep.KneeClients = prev.Clients
				rep.KneeReason = fmt.Sprintf(
					"throughput plateau at %d clients: %.1f → %.1f ops/s (below +%.0f%% gain)",
					n, prev.OpsPerSec, step.OpsPerSec, rc.KneeGain*100)
			case first.P99NS > 0 && float64(step.P99NS) > float64(first.P99NS)*rc.KneeP99Factor:
				rep.KneeClients = prev.Clients
				rep.KneeReason = fmt.Sprintf(
					"p99 blowup at %d clients: %s vs %s at the first step (over %.0fx)",
					n, time.Duration(step.P99NS).Round(time.Microsecond),
					time.Duration(first.P99NS).Round(time.Microsecond), rc.KneeP99Factor)
			}
		}
		if rc.OnStep != nil {
			rc.OnStep(step)
		}
	}
	return rep, nil
}
