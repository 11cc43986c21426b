package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"

	"yourandvalue"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the metric catalog's names and units, and that
// BENCHMARK.json lists exactly the catalog and the workloads.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...)
	for _, d := range all {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: malformed", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", what, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: catalog %s [%s], BENCHMARK.json %s [%s]", what, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", listed, workloadNames())
	}
}

// TestInputDigestStable checks that a seed fixes the request bodies.
func TestInputDigestStable(t *testing.T) {
	a, err := buildInputs(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInputs(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || digest(b) != a.digest {
		t.Fatalf("seed 7 gave digests %s and %s", a.digest, b.digest)
	}
	c, err := buildInputs(8, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Fatalf("seeds 7 and 8 gave the same digest %s", a.digest)
	}
}

// TestOracleCatchesFlippedEstimate serves a small model, checks a real
// reply against the oracle, then flips one bit of one estimate.
func TestOracleCatchesFlippedEstimate(t *testing.T) {
	ctx := context.Background()
	reg := pme.NewRegistry()
	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithScale(0.02),
		yourandvalue.WithCampaignImpressions(10),
		yourandvalue.WithCrossValidation(2, 1),
		yourandvalue.WithModelRegistry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pipe.GenerateTrace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Analyze(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	camps, err := pipe.RunCampaigns(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.TrainModel(ctx, res, camps); err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(reg, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	cl := newClient(srv.url, nil)
	defer cl.close()

	o := newOracle()
	o.add(reg.Current())
	req := in.small[0]
	var buf bytes.Buffer
	version, got, err := cl.estimate(ctx, req.body, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(version, req, got); err != nil {
		t.Fatalf("served reply fails the oracle: %v", err)
	}
	flipped := slices.Clone(got)
	flipped[len(flipped)/2] = math.Float64frombits(math.Float64bits(flipped[len(flipped)/2]) ^ 1)
	if o.check(version, req, flipped) == nil {
		t.Fatal("oracle accepted an estimate with one bit flipped")
	}
	if o.check(version+1, req, got) == nil {
		t.Fatal("oracle accepted a reply naming an unpublished version")
	}
}

// TestReconcileFailsRun checks that a reconciliation gap above the
// limit counts as a failed operation and makes the run incorrect.
func TestReconcileFailsRun(t *testing.T) {
	ok := &result{Correct: true}
	ok.reconcile(metrics{}, gap{"trace.route_gap_frac", "route", 0.04}, gap{"trace.setup_gap_frac", "setup", 0.01})
	if ok.done(); !ok.Correct || ok.Attempted != 2 || ok.Failed != 0 {
		t.Fatalf("gaps within the limit: %+v", ok)
	}
	bad := &result{Correct: true}
	m := metrics{}
	bad.reconcile(m, gap{"trace.route_gap_frac", "route", 0.15}, gap{"trace.setup_gap_frac", "setup", 0.01})
	if bad.done(); bad.Correct || bad.Failed != 1 {
		t.Fatalf("route gap of 15%%: %+v", bad)
	}
	if m["trace.route_gap_frac"].Value != 0.15 {
		t.Fatalf("route gap recorded as %v", m["trace.route_gap_frac"])
	}
	nan := &result{Correct: true}
	if nan.reconcile(metrics{}, gap{"trace.setup_gap_frac", "setup", math.NaN()}); nan.done().Correct {
		t.Fatal("a NaN gap passed")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
