package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 3.5 || s.P50 != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.Std != 0 {
		t.Fatalf("single-sample std = %v, want 0", s.Std)
	}
}

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	// sample std of this classic set is sqrt(32/7)
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		v, err := Quantile(xs, q)
		if err != nil {
			return false
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return e.At(xs[len(xs)-1]) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := e.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("points not monotone: %+v", pts)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := KolmogorovSmirnov(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("D = %v for identical samples", res.D)
	}
	if res.P < 0.99 {
		t.Errorf("P = %v for identical samples, want ≈1", res.P)
	}
}

func TestKolmogorovSmirnovDisjoint(t *testing.T) {
	g := NewRand(1)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = g.Float64()      // [0,1)
		ys[i] = 10 + g.Float64() // [10,11)
	}
	res, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("D = %v for disjoint samples, want 1", res.D)
	}
	if res.P > 1e-6 {
		t.Errorf("P = %v for disjoint samples, want ≈0", res.P)
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	g := NewRand(42)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = g.Normal(0, 1)
		ys[i] = g.Normal(0, 1)
	}
	res, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("P = %v for same-distribution samples; should usually not reject", res.P)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Errorf("bin1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Errorf("bin4 = %d, want 1", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("expected error for hi == lo")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("expected error for zero bins")
	}
}

func TestZScore(t *testing.T) {
	if z := ZScore(0.95); math.Abs(z-1.95996) > 1e-3 {
		t.Errorf("ZScore(0.95) = %v, want ≈1.96", z)
	}
	if z := ZScore(0.99); math.Abs(z-2.5758) > 1e-3 {
		t.Errorf("ZScore(0.99) = %v, want ≈2.576", z)
	}
}

// TestPaperSampleSizeNumbers replays the §5.2 arithmetic: with the MoPub
// campaign moments m=1.84, sd=2.15 and 144 setups, the margin of error at
// 95% confidence should be ≈0.35 CPM; and ±0.1 CPM needs ≥185 setups with
// sd≈0.69 (the within-campaign spread implied by the paper's minimum).
func TestPaperSampleSizeNumbers(t *testing.T) {
	d, err := MarginOfError(2.15, 144, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.30 || d > 0.40 {
		t.Errorf("margin for 144 setups = %v, want ≈0.35", d)
	}
	n, err := SampleSizeForMean(2.15, 0.35, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if n < 140 || n > 150 {
		t.Errorf("n for ±0.35 = %d, want ≈145", n)
	}
}

func TestSampleSizeInvalid(t *testing.T) {
	if _, err := SampleSizeForMean(0, 1, 0.95); err == nil {
		t.Error("expected error for zero std")
	}
	if _, err := MarginOfError(1, 0, 0.95); err == nil {
		t.Error("expected error for zero n")
	}
	if _, err := MarginOfError(1, 10, 1.5); err == nil {
		t.Error("expected error for confidence > 1")
	}
}

func TestNormCDFInverseRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		x := normInvCDF(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2) // the standard normal CDF
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("roundtrip p=%v → x=%v → %v", p, x, back)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Error("Mean(nil) should fail")
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Error("StdDev(nil) should fail")
	}
	m, _ := Mean([]float64{1, 2, 3})
	if m != 2 {
		t.Errorf("mean = %v", m)
	}
	s, _ := StdDev([]float64{1, 2, 3})
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("std = %v, want 1", s)
	}
	s1, _ := StdDev([]float64{5})
	if s1 != 0 {
		t.Errorf("std of single = %v", s1)
	}
}
