// scaletest is the repo's load-testing CLI, modeled on coder/coder's
// scaletest: named workload strategies drive a pmeserver the way a
// deployed extension fleet would, per-strategy SLO gates turn latency
// and error budgets into exit codes CI can gate on, a concurrency ramp
// finds the knee of the throughput curve, and every run can persist a
// schema-versioned BENCH_*.json artifact so the perf trajectory is
// tracked instead of folklore.
//
// Fixed-fleet run of two strategies against an in-process server:
//
//	go run ./cmd/scaletest -strategy estimate-heavy,stream-heavy -clients 16 -duration 10s
//
// Ramp the mixed fleet 2→4→8 clients and report the knee:
//
//	go run ./cmd/scaletest -strategy mixed -ramp 2,4,8 -step-duration 5s
//
// Gate on an SLO (exit code 2 on violation, distinct from hard
// failures' 1) and keep the artifact:
//
//	go run ./cmd/scaletest -strategy estimate-heavy -slo-p99 50ms -out BENCH_scaletest.json
//
// Record request-level spans (NDJSON, OpenTelemetry-style parent links,
// server-side spans included when self-hosting) for SLO debugging:
//
//	go run ./cmd/scaletest -strategy mixed -trace-out spans.ndjson
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/scaletest"
	"yourandvalue/internal/scenario"
	"yourandvalue/internal/store"

	// Store backends register their URL schemes on import.
	_ "yourandvalue/internal/store/memstore"
	_ "yourandvalue/internal/store/redisstore"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running pmeserver (comma-separated list for -strategy fleet); empty starts in-process")
	strategy := flag.String("strategy", "mixed",
		"comma-separated workload strategies, or 'all'; one of: "+strings.Join(scaletest.Strategies(), ", ")+
			"; or 'fleet' for the multi-replica consistency/propagation run (see -store, -fleet-replicas)")
	list := flag.Bool("list", false, "list workload strategies and exit")
	clients := flag.Int("clients", 16, "fleet size for fixed (non-ramp) runs")
	duration := flag.Duration("duration", 10*time.Second, "wall-clock cap for fixed runs")
	ramp := flag.String("ramp", "", "comma-separated client counts (e.g. 2,4,8); empty = fixed run")
	rampTo := flag.Int("ramp-to", 0, "ramp geometrically (doubling from 2) up to this client count")
	stepDur := flag.Duration("step-duration", 5*time.Second, "wall-clock cap per ramp step")
	stepOps := flag.Int64("step-maxops", 0, "op budget per ramp step (0 = until step duration)")
	maxOps := flag.Int64("maxops", 0, "total op budget for fixed runs (0 = until duration)")
	batch := flag.Int("batch", 32, "trace requests per client operation cycle")
	scen := flag.String("scenario", "baseline",
		"simulated world feeding the clients; one of: "+strings.Join(scenario.Names(), ", "))
	scale := flag.Float64("scale", 0.05, "trace scale in (0,1] feeding the clients")
	seed := flag.Int64("seed", 1, "master seed for traffic and churn lifetimes")
	pool := flag.Int("pool", 0, "override the server contribution-pool bound (in-process only)")
	swapEvery := flag.Duration("swap-every", 0,
		"republish the model this often while self-hosting (ETag churn; 0 = auto: 500ms for model-poll/mixed)")
	sloP99 := flag.Duration("slo-p99", 0, "SLO: per-request p99 ceiling (0 = strategy default)")
	sloErr := flag.Float64("slo-error-rate", -2, "SLO: error budget as a fraction of requests (0 = none allowed, -1 = unchecked; default: strategy default)")
	sloHeap := flag.Int64("slo-max-heap", 0, "SLO: peak sampled heap bytes (0 = strategy default)")
	storeURL := flag.String("store", "", "fleet: shared store URL (redis://host:port or mem://; default mem://) — also enables swap churn against an external fleet")
	fleetReplicas := flag.Int("fleet-replicas", 2, "fleet: self-hosted replica count when -addr is empty")
	propBound := flag.Duration("propagation-bound", 5*time.Second, "fleet: publish→replica flip lag ceiling (violation = exit 2)")
	workload := flag.String("workload", "mixed", "fleet: per-client workload profile driven round-robin across the replicas")
	out := flag.String("out", "BENCH_scaletest.json", "write the BENCH artifact here ('' = skip)")
	benchIn := flag.String("bench-in", "", "fold `go test -bench` output from this file into the artifact")
	traceOut := flag.String("trace-out", "", "write request-level spans as NDJSON to this file")
	flag.Parse()

	if *list {
		fmt.Print(scaletest.DescribeStrategies())
		return
	}

	code, err := run(options{
		addr: *addr, strategy: *strategy, clients: *clients, duration: *duration,
		ramp: *ramp, rampTo: *rampTo, stepDur: *stepDur, stepOps: *stepOps,
		maxOps: *maxOps, batch: *batch, scenario: *scen, scale: *scale,
		seed: *seed, pool: *pool, swapEvery: *swapEvery,
		storeURL: *storeURL, fleetReplicas: *fleetReplicas, propBound: *propBound, workload: *workload,
		sloP99: *sloP99, sloErr: *sloErr, sloHeap: *sloHeap,
		out: *out, benchIn: *benchIn, traceOut: *traceOut,
	})
	if err != nil {
		log.Print(err)
	}
	os.Exit(code)
}

// options carries the parsed flags by name so run's call site cannot
// silently transpose same-typed values.
type options struct {
	addr      string
	strategy  string
	clients   int
	duration  time.Duration
	ramp      string
	rampTo    int
	stepDur   time.Duration
	stepOps   int64
	maxOps    int64
	batch     int
	scenario  string
	scale     float64
	seed      int64
	pool      int
	swapEvery time.Duration

	storeURL      string
	fleetReplicas int
	propBound     time.Duration
	workload      string

	sloP99   time.Duration
	sloErr   float64
	sloHeap  int64
	out      string
	benchIn  string
	traceOut string
}

// strategies expands the -strategy flag.
func (o options) strategies() ([]string, error) {
	if o.strategy == "all" {
		return scaletest.Strategies(), nil
	}
	var names []string
	for _, n := range strings.Split(o.strategy, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := scaletest.ProfileFor(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("scaletest: -strategy named no strategies")
	}
	return names, nil
}

// rampSteps expands -ramp / -ramp-to; nil means a fixed run.
func (o options) rampSteps() ([]int, error) {
	if o.ramp == "" {
		if o.rampTo > 0 {
			return scaletest.GeometricSteps(2, o.rampTo), nil
		}
		return nil, nil
	}
	var steps []int
	for _, f := range strings.Split(o.ramp, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("scaletest: bad -ramp step %q", f)
		}
		steps = append(steps, n)
	}
	return steps, nil
}

// slo renders the SLO flags; nil keeps the strategy default.
func (o options) slo() *scaletest.SLO {
	if o.sloP99 <= 0 && o.sloErr <= -2 && o.sloHeap <= 0 {
		return nil
	}
	s := &scaletest.SLO{MaxP99: o.sloP99, MaxErrorRate: o.sloErr, MaxHeapBytes: uint64(max(o.sloHeap, 0))}
	if o.sloErr <= -2 {
		// Only p99/heap were set explicitly; keep the universal "no
		// errors" budget rather than silently disabling it.
		s.MaxErrorRate = 0
	}
	return s
}

func run(o options) (int, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if o.strategy == "fleet" {
		return runFleet(ctx, o)
	}

	names, err := o.strategies()
	if err != nil {
		return scaletest.ExitError, err
	}
	steps, err := o.rampSteps()
	if err != nil {
		return scaletest.ExitError, err
	}

	var tracer *trace.Tracer
	if o.traceOut != "" {
		tracer = trace.NewTracer(0)
	}

	base := o.addr
	var host *scaletest.SelfHost
	if base == "" {
		// Server-side spans ride the same tracer via the server's trace
		// middleware: clients inject traceparent, the middleware records
		// a server span under the client's, so a client-visible p99 spike
		// can be split into server time vs everything else — span by span.
		var opts []pmeserver.Option
		if tracer != nil {
			opts = append(opts, pmeserver.WithTracer(tracer))
		}
		host, err = scaletest.StartSelfHost(o.seed, o.pool, opts...)
		if err != nil {
			return scaletest.ExitError, err
		}
		defer host.Close()
		base = host.BaseURL
		fmt.Fprintf(os.Stderr, "scaletest: in-process pmeserver at %s\n", base)

		// ETag churn: strategies that measure model polling need the
		// version to actually flip mid-run.
		swap := o.swapEvery
		if swap == 0 {
			for _, n := range names {
				if n == "model-poll" || n == "mixed" {
					swap = 500 * time.Millisecond
				}
			}
		}
		if swap > 0 {
			churnCtx, stopChurn := context.WithCancel(ctx)
			wait := scaletest.StartModelChurn(churnCtx, host.Server, swap)
			defer func() { stopChurn(); wait() }()
		}
	}

	artifact := scaletest.NewArtifact()
	var results []*scaletest.Result
	for _, name := range names {
		cfg := scaletest.Config{
			BaseURL:   base,
			Strategy:  name,
			Clients:   o.clients,
			Scenario:  o.scenario,
			Scale:     o.scale,
			Seed:      o.seed,
			BatchSize: o.batch,
			Duration:  o.duration,
			MaxOps:    o.maxOps,
			Tracer:    tracer,
			SLO:       o.slo(),
		}
		if len(steps) > 0 {
			rep, err := scaletest.RunRamp(ctx, cfg, scaletest.RampConfig{
				Steps:        steps,
				StepDuration: o.stepDur,
				StepMaxOps:   o.stepOps,
				OnStep: func(s scaletest.StepResult) {
					fmt.Fprintf(os.Stderr, "scaletest: %s step %d clients done (%.1f ops/s)\n",
						name, s.Clients, s.OpsPerSec)
				},
			})
			if err != nil {
				return scaletest.ExitError, err
			}
			fmt.Print(rep.String())
			artifact.AddRamp(rep)
			// The final step doubles as the strategy's headline result so
			// the artifact always carries per-strategy percentiles.
			for _, s := range rep.Steps {
				results = append(results, s.Result)
			}
			if n := len(rep.Steps); n > 0 {
				last := rep.Steps[n-1].Result
				artifact.AddResult(last)
				fmt.Print(last.String())
			}
		} else {
			res, err := scaletest.Run(ctx, cfg)
			if err != nil {
				return scaletest.ExitError, err
			}
			fmt.Print(res.String())
			artifact.AddResult(res)
			results = append(results, res)
		}
	}

	if o.benchIn != "" {
		f, err := os.Open(o.benchIn)
		if err != nil {
			return scaletest.ExitError, err
		}
		gb, perr := scaletest.ParseGoBench(f)
		f.Close()
		if perr != nil {
			return scaletest.ExitError, perr
		}
		artifact.GoBench = gb
		fmt.Fprintf(os.Stderr, "scaletest: folded %d go-bench results from %s\n", len(gb), o.benchIn)
	}

	// Fold the server's own post-run telemetry into the artifact: the
	// /metrics exposition carries the registry/pool/retrain lifecycle
	// series no client-side counter can see.
	if fams, err := scaletest.ScrapeMetrics(ctx, base); err != nil {
		fmt.Fprintf(os.Stderr, "scaletest: /metrics scrape skipped: %v\n", err)
	} else {
		artifact.ServerMetrics = fams
		fmt.Fprintf(os.Stderr, "scaletest: scraped %d metric families from %s/metrics\n", len(fams), base)
	}
	// Against a remote server the tracer holds only client spans; merge
	// the server's /debug/trace export so one NDJSON file still shows the
	// full tree. Self-hosted runs share the tracer, so there is nothing
	// to merge.
	if tracer != nil && host == nil {
		spans, err := scaletest.ScrapeTrace(ctx, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scaletest: /debug/trace scrape skipped: %v\n", err)
		}
		for _, sp := range spans {
			tracer.Record(sp)
		}
		if len(spans) > 0 {
			fmt.Fprintf(os.Stderr, "scaletest: merged %d server-side spans from %s/debug/trace\n", len(spans), base)
		}
	}

	if o.out != "" {
		if err := artifact.WriteFile(o.out); err != nil {
			return scaletest.ExitError, err
		}
		fmt.Fprintf(os.Stderr, "scaletest: wrote %s\n", o.out)
	}
	if tracer != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return scaletest.ExitError, err
		}
		if err := tracer.WriteNDJSON(f); err != nil {
			f.Close()
			return scaletest.ExitError, err
		}
		if err := f.Close(); err != nil {
			return scaletest.ExitError, err
		}
		fmt.Fprintf(os.Stderr, "scaletest: wrote %d spans to %s (dropped %d)\n",
			tracer.Len(), o.traceOut, tracer.Dropped())
	}

	// SLO violations exit 2 only after the artifact is on disk — a
	// failing perf gate must still leave the evidence for CI to upload.
	if code := scaletest.ExitCode(nil, results); code != scaletest.ExitOK {
		for _, r := range results {
			if r != nil && !r.SLO.OK() {
				fmt.Fprintf(os.Stderr, "scaletest: %s (%d clients): %s\n", r.Strategy, r.Clients, r.SLO)
			}
		}
		return code, nil
	}
	return scaletest.ExitOK, nil
}

// runFleet is the -strategy fleet path: a client fleet round-robined
// across N pmeserver replicas on one shared store, with per-replica
// version watchers asserting forward-only consistency and bounding
// publish→flip propagation. With -addr empty it self-hosts the replicas
// (over -store, default one shared in-memory store); against external
// replicas -store additionally enables swap churn through the store.
func runFleet(ctx context.Context, o options) (int, error) {
	addrs := splitAddrs(o.addr)
	var publisher *pme.Replica
	if len(addrs) == 0 {
		host, err := scaletest.StartFleet(o.storeURL, o.fleetReplicas, o.seed)
		if err != nil {
			return scaletest.ExitError, err
		}
		defer host.Close()
		addrs = host.Addrs
		publisher = host.Publisher
		fmt.Fprintf(os.Stderr, "scaletest: in-process fleet of %d replicas at %s\n",
			len(addrs), strings.Join(addrs, ", "))
	} else if o.storeURL != "" {
		st, err := store.Open(o.storeURL)
		if err != nil {
			return scaletest.ExitError, err
		}
		defer st.Close()
		publisher = pme.NewReplica(st, nil, pme.WithReplicaID("scaletest-publisher"))
		if err := publisher.SyncOnce(ctx); err != nil || publisher.Current() == nil {
			fmt.Fprintf(os.Stderr, "scaletest: store at %s has no model yet; running without swap churn\n", o.storeURL)
			publisher = nil
		}
	}

	res, err := scaletest.RunFleet(ctx, scaletest.FleetConfig{
		Addrs:            addrs,
		Clients:          o.clients,
		Strategy:         o.workload,
		Scenario:         o.scenario,
		Scale:            o.scale,
		Seed:             o.seed,
		BatchSize:        o.batch,
		Duration:         o.duration,
		MaxOps:           o.maxOps,
		SLO:              o.slo(),
		Publisher:        publisher,
		SwapEvery:        o.swapEvery,
		PropagationBound: o.propBound,
	})
	if err != nil {
		return scaletest.ExitError, err
	}
	fmt.Print(res.String())

	artifact := scaletest.NewArtifact()
	artifact.AddFleet(res)
	if res.Result != nil {
		artifact.AddResult(res.Result)
	}
	// Every replica's post-run /metrics lands in the artifact — the fleet
	// series (lease, adoptions, propagation, store ops) live there.
	for _, addr := range addrs {
		if fams, err := scaletest.ScrapeMetrics(ctx, addr); err != nil {
			fmt.Fprintf(os.Stderr, "scaletest: /metrics scrape of %s skipped: %v\n", addr, err)
		} else {
			artifact.ServerMetrics = append(artifact.ServerMetrics, fams...)
		}
	}
	if o.out != "" {
		if err := artifact.WriteFile(o.out); err != nil {
			return scaletest.ExitError, err
		}
		fmt.Fprintf(os.Stderr, "scaletest: wrote %s\n", o.out)
	}

	if !res.OK() {
		fmt.Fprintf(os.Stderr, "scaletest: fleet invariants violated (violations=%d laggards=%d max-propagation=%s bound=%s)\n",
			res.ConsistencyViolations, len(res.LaggardReplicas), res.MaxPropagation, res.PropagationBound)
		if res.Result != nil && !res.Result.SLO.OK() {
			fmt.Fprintf(os.Stderr, "scaletest: %s\n", res.Result.SLO)
		}
		return scaletest.ExitSLOViolation, nil
	}
	return scaletest.ExitOK, nil
}

// splitAddrs expands the comma-separated -addr list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
