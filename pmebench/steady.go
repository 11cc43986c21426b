package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// steadyMain is the steadiness mode: it runs one workload of this build
// --runs times per set, seed after seed, and prints each metric's
// median, quartiles and relative spread (q3-q1)/median per set. With
// --sets 2 or more, every set repeats the same seeds and the table also
// gives each set's median drift from the first set's. The benchmark's
// bounds come from these spreads; two sets that agree within the bounds
// show the benchmark measures the same code the same way.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("pmebench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 5, "runs per set")
	sets := fs.Int("sets", 1, "sets of runs")
	seconds := fs.Int("seconds", 8, "--seconds of each run")
	seed := fs.Int64("seed", 1, "seed of each set's first run; run i uses seed+i")
	traced := fs.Int("trace", 0, "--trace of each run")
	spansDir := fs.String("spans-dir", "", "--spans-dir of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 1 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "pmebench steady: --runs and --sets must be at least 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmebench steady:", err)
		return 1
	}

	vals := make([]map[string][]float64, *sets)
	units := map[string]string{}
	bad := 0
	for s := range vals {
		vals[s] = map[string][]float64{}
		for i := 0; i < *runs; i++ {
			sd := *seed + int64(i)
			cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(sd, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*traced), "--spans-dir", *spansDir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct || res.Failed > 0 {
				bad++
				fmt.Fprintf(os.Stderr, "set %d seed %d: run failed (%v %v)\n%s", s+1, sd, err, perr, stderr.Bytes())
				continue
			}
			var line []string
			for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
				m, ok := res.Metrics[d.name]
				if !ok {
					continue
				}
				vals[s][d.name] = append(vals[s][d.name], m.Value)
				units[d.name] = m.Unit
				if len(line) < len(endToEnd) {
					line = append(line, fmt.Sprintf("%s=%.4g", d.name, m.Value))
				}
			}
			fmt.Fprintf(os.Stderr, "set %d seed %d: attempted %d failed %d %s\n", s+1, sd, res.Attempted, res.Failed, strings.Join(line, " "))
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\tset\tn\tmedian\tq1\tq3\tspread\tdrift\t\n")
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		for s := range vals {
			xs := vals[s][d.name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			drift := "-"
			if first := vals[0][d.name]; s > 0 && len(first) > 0 {
				_, m0, _ := quartiles(first)
				drift = fmt.Sprintf("%+.3f", rel(med-m0, m0))
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t%s\t\n",
				d.name, units[d.name], s+1, len(xs), med, q1, q3, rel(q3-q1, med), drift)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "pmebench steady: %d runs failed\n", bad)
		return 1
	}
	return 0
}

// rel is x as a share of base (0 when base is 0).
func rel(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// lastResult parses the result line a run printed last.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
