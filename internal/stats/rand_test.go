package stats

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestLogNormalMeanStd(t *testing.T) {
	g := NewRand(11)
	const m, s = 1.84, 2.15 // the paper's MoPub campaign moments
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := g.LogNormalMeanStd(m, s)
		if x <= 0 {
			t.Fatal("log-normal must be positive")
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-m)/m > 0.05 {
		t.Errorf("empirical mean %v, want ≈%v", mean, m)
	}
	if math.Abs(std-s)/s > 0.10 {
		t.Errorf("empirical std %v, want ≈%v", std, s)
	}
}

func TestLogNormalMeanStdNonPositiveMean(t *testing.T) {
	g := NewRand(1)
	if v := g.LogNormalMeanStd(0, 1); v != 0 {
		t.Errorf("zero mean should return 0, got %v", v)
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRand(3)
	for _, lambda := range []float64{0.5, 3, 12, 50} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%v) empirical mean %v", lambda, mean)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewRand(5)
	z := g.Zipf(1.2, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 50000; i++ {
		r := z.Next()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("zipf not monotone-ish: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
	// Top rank should dominate: rank 0 vastly more popular than rank 999.
	if counts[0] < 20*max(counts[999], 1) {
		t.Errorf("insufficient skew: c0=%d c999=%d", counts[0], counts[999])
	}
}

func TestZipfDegenerate(t *testing.T) {
	g := NewRand(5)
	z := g.Zipf(0.5, 0) // invalid params clamped
	if r := z.Next(); r != 0 {
		t.Errorf("degenerate zipf rank = %d", r)
	}
}

func TestWeightedChoice(t *testing.T) {
	g := NewRand(9)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[g.WeightedChoice(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight indices chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ≈3", ratio)
	}
}

func TestWeightedChoiceEdgeCases(t *testing.T) {
	g := NewRand(2)
	if i := g.WeightedChoice(nil); i != -1 {
		t.Errorf("empty weights → %d, want -1", i)
	}
	// All-zero weights fall back to uniform.
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[g.WeightedChoice([]float64{0, 0, 0})] = true
	}
	if len(seen) < 2 {
		t.Error("uniform fallback not exercised")
	}
	// Negative weights treated as zero.
	for i := 0; i < 100; i++ {
		if g.WeightedChoice([]float64{-5, 1}) != 1 {
			t.Fatal("negative weight selected")
		}
	}
}

func TestBernoulli(t *testing.T) {
	g := NewRand(4)
	hits := 0
	for i := 0; i < 10000; i++ {
		if g.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / 10000
	if p < 0.22 || p > 0.28 {
		t.Errorf("Bernoulli(0.25) rate = %v", p)
	}
}

func TestPerm(t *testing.T) {
	g := NewRand(6)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestPermIntoMatchesPerm checks PermInto against math/rand's Perm on a
// same-seeded twin: the same permutation for every n, through one
// reused buffer, and the same generator state afterwards.
func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRand(41), NewRand(41)
	var buf []int
	for n := 0; n <= 300; n++ {
		want := a.Perm(n)
		buf = b.PermInto(buf, n)
		if len(buf) != n {
			t.Fatalf("n=%d: len %d", n, len(buf))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d] = %d, Perm gives %d", n, i, buf[i], want[i])
			}
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("n=%d: next Int63 %d after Perm, %d after PermInto", n, x, y)
		}
	}
}
