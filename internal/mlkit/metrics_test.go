package mlkit

import (
	"math"
	"testing"
	"testing/quick"

	"yourandvalue/internal/stats"
)

func TestConfusionBasics(t *testing.T) {
	cm := NewConfusion(2)
	// actual 0: 8 right, 2 wrong; actual 1: 5 right, 5 wrong.
	for i := 0; i < 8; i++ {
		cm.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		cm.Add(0, 1)
	}
	for i := 0; i < 5; i++ {
		cm.Add(1, 1)
	}
	for i := 0; i < 5; i++ {
		cm.Add(1, 0)
	}
	if cm.Total() != 20 {
		t.Fatalf("total %d", cm.Total())
	}
	if acc := cm.Accuracy(); math.Abs(acc-0.65) > 1e-12 {
		t.Errorf("accuracy %v", acc)
	}
	rec := cm.RecallByClass()
	if math.Abs(rec[0]-0.8) > 1e-12 || math.Abs(rec[1]-0.5) > 1e-12 {
		t.Errorf("recall %v", rec)
	}
	prec := cm.PrecisionByClass()
	if math.Abs(prec[0]-8.0/13) > 1e-12 || math.Abs(prec[1]-5.0/7) > 1e-12 {
		t.Errorf("precision %v", prec)
	}
	fpr := cm.FPRateByClass()
	// class 0: fp = 5 (actual 1 predicted 0), tn = 5 → 0.5
	if math.Abs(fpr[0]-0.5) > 1e-12 || math.Abs(fpr[1]-0.2) > 1e-12 {
		t.Errorf("fp rates %v", fpr)
	}
	// Weighted recall = accuracy for any confusion matrix.
	if math.Abs(cm.WeightedRecall()-cm.Accuracy()) > 1e-12 {
		t.Error("weighted recall must equal accuracy")
	}
	wp := cm.WeightedPrecision()
	want := (8.0/13)*0.5 + (5.0/7)*0.5
	if math.Abs(wp-want) > 1e-12 {
		t.Errorf("weighted precision %v, want %v", wp, want)
	}
}

func TestConfusionIgnoresOutOfRange(t *testing.T) {
	cm := NewConfusion(2)
	cm.Add(-1, 0)
	cm.Add(0, 5)
	if cm.Total() != 0 {
		t.Error("out-of-range labels recorded")
	}
	if cm.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	// Perfect separation → AUC 1.
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{0, 0, 1, 1}
	if auc := AUCROC(scores, labels, 1); auc != 1 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Inverted → 0.
	if auc := AUCROC(scores, []int{1, 1, 0, 0}, 1); auc != 0 {
		t.Errorf("inverted AUC = %v", auc)
	}
	// Constant scores → 0.5 via tie handling.
	if auc := AUCROC([]float64{0.5, 0.5, 0.5, 0.5}, labels, 1); math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v", auc)
	}
	// Degenerate single-class labels → 0.5.
	if auc := AUCROC(scores, []int{1, 1, 1, 1}, 1); auc != 0.5 {
		t.Errorf("single-class AUC = %v", auc)
	}
}

func TestAUCRangeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		scores := make([]float64, len(raw))
		labels := make([]int, len(raw))
		for i, v := range raw {
			scores[i] = float64(v % 16)
			labels[i] = int(v) % 2
		}
		auc := AUCROC(scores, labels, 1)
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedAUCROC(t *testing.T) {
	// Perfectly separable 3-class problem.
	probs := [][]float64{
		{0.9, 0.05, 0.05}, {0.8, 0.1, 0.1},
		{0.1, 0.8, 0.1}, {0.05, 0.9, 0.05},
		{0.1, 0.1, 0.8}, {0.05, 0.05, 0.9},
	}
	labels := []int{0, 0, 1, 1, 2, 2}
	if auc := WeightedAUCROC(probs, labels, 3); auc != 1 {
		t.Errorf("weighted AUC = %v", auc)
	}
	if auc := WeightedAUCROC(nil, nil, 3); auc != 0.5 {
		t.Errorf("empty weighted AUC = %v", auc)
	}
}

func TestEvaluateAgainstForest(t *testing.T) {
	X, y := noisyData(800, 21)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 30, Seed: 22})
	rep := Evaluate(X, y, 3,
		func(x []float64) int { return refForestPredict(f, x) },
		func(x []float64) []float64 { return refForestProba(f, x) })
	if rep.Accuracy < 0.85 {
		t.Errorf("training accuracy %.3f", rep.Accuracy)
	}
	if rep.AUCROC < 0.9 {
		t.Errorf("training AUC %.3f", rep.AUCROC)
	}
	if rep.FPRate > 0.15 {
		t.Errorf("FP rate %.3f", rep.FPRate)
	}
	if rep.Confusion.Total() != len(X) {
		t.Error("confusion total")
	}
	if math.Abs(rep.Recall-rep.Accuracy) > 1e-9 {
		t.Error("weighted recall should equal accuracy")
	}
}

func TestBinnerBalanced(t *testing.T) {
	rng := stats.NewRand(31)
	vals := make([]float64, 4000)
	for i := range vals {
		vals[i] = rng.LogNormal(0, 1)
	}
	b, err := NewBinner(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Classes() != 4 || len(b.Edges) != 3 {
		t.Fatalf("classes %d, edges %d", b.Classes(), len(b.Edges))
	}
	counts := make([]int, 4)
	for _, v := range vals {
		counts[b.Class(v)]++
	}
	for c, n := range counts {
		if n < 900 || n > 1100 {
			t.Errorf("class %d has %d samples, want ≈1000 (balanced)", c, n)
		}
	}
	// Balanced 4-way split entropy ≈ ln 4.
	if h := b.ClassEntropy(vals); math.Abs(h-math.Log(4)) > 0.01 {
		t.Errorf("entropy %v, want ≈%v", h, math.Log(4))
	}
	// Representatives must be ordered and within class ranges.
	for c := 1; c < 4; c++ {
		if b.Representative(c) <= b.Representative(c-1) {
			t.Errorf("representatives not increasing: %v", b.Reps)
		}
	}
	// Out-of-range classes clamp.
	if b.Representative(-1) != b.Reps[0] || b.Representative(99) != b.Reps[3] {
		t.Error("representative clamping")
	}
}

func TestBinnerEdgeMembership(t *testing.T) {
	b := &Binner{Edges: []float64{1, 2}, Reps: []float64{0.5, 1.5, 3}}
	cases := map[float64]int{0.5: 0, 1: 0, 1.5: 1, 2: 1, 2.5: 2}
	for v, want := range cases {
		if got := b.Class(v); got != want {
			t.Errorf("Class(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestBinnerLabels(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b, err := NewBinner(vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	labels := b.Labels(vals)
	lo, hi := 0, 0
	for _, l := range labels {
		if l == 0 {
			lo++
		} else {
			hi++
		}
	}
	if lo != 4 || hi != 4 {
		t.Errorf("labels unbalanced: %v", labels)
	}
}

func TestBinnerInvalid(t *testing.T) {
	if _, err := NewBinner([]float64{1}, 2); err != ErrBadBinning {
		t.Error("too-small sample accepted")
	}
	if _, err := NewBinner([]float64{1, 2, 3}, 1); err != ErrBadBinning {
		t.Error("k=1 accepted")
	}
	// All-identical values cannot be split.
	if _, err := NewBinner([]float64{5, 5, 5, 5}, 2); err != ErrBadBinning {
		t.Error("constant values accepted")
	}
}

func TestBinnerMonotoneInvariance(t *testing.T) {
	// Class membership must be identical whether we bin raw prices or
	// log-transformed prices (the §5.1 pipeline applies the transform).
	rng := stats.NewRand(41)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.LogNormal(0, 1.2)
	}
	raw, err := NewBinner(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := NewBinner(LogTransform(vals), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if raw.Class(v) != logged.Class(math.Log1p(v)) {
			t.Fatalf("class differs at %d", i)
		}
	}
}
