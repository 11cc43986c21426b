// Command pmebench is the repository's benchmark. It boots the PME the
// way cmd/pme does with its default flags (Pipeline bootstrap →
// pme.Registry → pmeserver.New), drives it from the same process over
// loopback HTTP on two connections with inputs built from a seed, checks
// every reply against an in-process oracle, and prints one JSON result
// line: the end-to-end metrics, or with --trace 1 the per-layer ones.
// README.md describes the workloads and metrics.
//
//	pmebench --workload estimate-small --seed 1 --seconds 8 --trace 0
//	pmebench steady --workload estimate-small --runs 5 --sets 2
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of the catalog BENCHMARK.json lists.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the PME sees, printed by untraced
// runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"retrain_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by traced runs.
var perLayer = []metricDef{
	{"pmeserver.route_us.p50", "us"},
	{"pmeserver.route_us.p99", "us"},
	{"pmeserver.self_us", "us"},
	{"pmeserver.stream_us_per_item", "us"},
	{"client.wire_us", "us"},
	{"pme.estimate_us", "us"},
	{"pme.batcher.queue_wait_us.p50", "us"},
	{"pme.batcher.queue_wait_us.p99", "us"},
	{"pme.batcher.requests_per_flush", "ratio"},
	{"pme.batcher.flushes.idle", "count"},
	{"pme.batcher.flushes.size", "count"},
	{"pme.batcher.flushes.deadline", "count"},
	{"pme.batcher.flushes.backlog", "count"},
	{"pme.contribute_us", "us"},
	{"pme.pool.accepted", "count"},
	{"pme.pool.dropped", "count"},
	{"pme.retrain.train_ms", "ms"},
	{"pme.registry.publish_ms", "ms"},
	{"pmeserver.model_poll_us.304", "us"},
	{"pmeserver.model_poll_us.200", "us"},
	{"core.encode_us_per_item", "us"},
	{"mlkit.walk_us_per_item", "us"},
	{"mlkit.model_nodes", "count"},
	{"setup.generate_trace_s", "s"},
	{"setup.analyze_s", "s"},
	{"setup.run_campaigns_s", "s"},
	{"setup.train_model_s", "s"},
	{"setup.publish_ms", "ms"},
	{"analyzer.analyze_s", "s"},
	{"core.estimate_costs_ms", "ms"},
	{"analyzer.impressions_per_request", "ratio"},
	{"runtime.alloc_bytes_per_item", "B"},
	{"runtime.gc_per_kitem", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.route_gap_frac", "ratio"},
	{"trace.setup_gap_frac", "ratio"},
	{"machine.slowdown", "ratio"},
}

func unitOf(name string) string {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("pmebench: metric " + name + " is not in the catalog")
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// count adds a phase's operations to the result.
func (r *result) count(p phaseStats) {
	r.Attempted += p.ops
	r.Failed += p.failed
}

// done settles Correct from the failure count and fills every per-layer
// metric a traced workload does not exercise with 0.
func (r *result) done() *result {
	r.Correct = r.Correct && r.Failed == 0
	if _, traced := r.Metrics["trace.overhead_frac"]; traced {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; !ok {
				r.Metrics.set(d.name, 0)
			}
		}
	}
	return r
}

// endToEndMetrics are an untraced run's metrics. The timed ones are
// scaled by the run's machine slowdown to what the tuning VM would have
// measured; standard error gets them unscaled too.
func endToEndMetrics(setup time.Duration, itemsPerSec float64, p50, p99, retrain time.Duration, rss float64) metrics {
	s := probes.slowdown()
	logf("unscaled: setup_s %.3f, items_per_s %.0f, p50_ms %.4f, p99_ms %.4f, retrain_s %.4f; machine slowdown %.3f (%d probes)",
		secs(setup), itemsPerSec, ms(p50), ms(p99), secs(retrain), s, probes.count())
	m := metrics{}
	m.set("setup_s", secs(setup)/s)
	m.set("items_per_s", itemsPerSec*s)
	m.set("p50_ms", ms(p50)/s)
	m.set("p99_ms", ms(p99)/s)
	m.set("retrain_s", secs(retrain)/s)
	m.set("peak_rss_mb", rss)
	return m
}

// runConfig is one invocation's flags.
type runConfig struct {
	seed     int64
	seconds  int
	traced   bool
	workload string
	spansDir string
}

type workload struct {
	name string
	run  func(context.Context, runConfig) (*result, error)
}

var workloads = []workload{
	{"estimate-small", runServing(kindSmall)},
	{"stream-bulk", runServing(kindStream)},
	{"mixed-writes", runServing(kindMixed)},
	{"study-tally", runTally},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runLimit bounds one run so a hung request cannot keep the process past
// the 180 s a run may take.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("pmebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 8, "nominal run length; fixes the amount of work")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its span export to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var run func(context.Context, runConfig) (*result, error)
	for _, w := range workloads {
		if w.name == *name {
			run = w.run
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "pmebench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "pmebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res, err := run(ctx, runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, workload: *name, spansDir: *spansDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// logf writes one progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pmebench: "+format+"\n", args...)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rtSample is a reading of the Go runtime counters the per-layer
// runtime metrics are deltas of.
type rtSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtSample{v[0], v[1], v[2], v[3]}
}

// addDelta adds to s how much the counters grew from reading a to b.
func (s *rtSample) addDelta(a, b rtSample) {
	s.allocBytes += b.allocBytes - a.allocBytes
	s.gcCycles += b.gcCycles - a.gcCycles
	s.gcCPU += b.gcCPU - a.gcCPU
	s.totalCPU += b.totalCPU - a.totalCPU
}

// writeSpans exports a traced run's client and route spans as NDJSON.
func writeSpans(rc runConfig, tr *tracing) {
	if rc.spansDir == "" {
		return
	}
	path := filepath.Join(rc.spansDir, fmt.Sprintf("spans-%s-%d.ndjson", rc.workload, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		logf("span export: %v", err)
		return
	}
	if err := tr.spans.WriteNDJSON(f); err != nil {
		logf("span export: %v", err)
	}
	if err := f.Close(); err != nil {
		logf("span export: %v", err)
	}
	logf("spans: %d written to %s (%d dropped)", tr.spans.Len(), path, tr.spans.Dropped())
}
