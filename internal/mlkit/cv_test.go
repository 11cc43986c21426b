package mlkit

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"yourandvalue/internal/stats"
)

func TestKFoldCoverage(t *testing.T) {
	folds := KFold(103, 10, 1)
	if len(folds) != 10 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		for _, i := range f.TestIdx {
			seen[i]++
		}
		if len(f.TrainIdx)+len(f.TestIdx) != 103 {
			t.Fatal("fold does not partition the data")
		}
		inTest := map[int]bool{}
		for _, i := range f.TestIdx {
			inTest[i] = true
		}
		for _, i := range f.TrainIdx {
			if inTest[i] {
				t.Fatal("row in both train and test")
			}
		}
	}
	if len(seen) != 103 {
		t.Fatalf("only %d rows covered", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("row %d in %d test sets", i, n)
		}
	}
}

func TestKFoldSmallEdge(t *testing.T) {
	folds := KFold(3, 10, 2)
	if len(folds) != 3 {
		t.Errorf("k should clamp to n: %d", len(folds))
	}
	folds = KFold(10, 1, 3)
	if len(folds) != 2 {
		t.Errorf("k should clamp up to 2: %d", len(folds))
	}
}

func TestKFoldDeterminism(t *testing.T) {
	a, b := KFold(50, 5, 7), KFold(50, 5, 7)
	for i := range a {
		if len(a[i].TestIdx) != len(b[i].TestIdx) {
			t.Fatal("fold sizes differ")
		}
		for j := range a[i].TestIdx {
			if a[i].TestIdx[j] != b[i].TestIdx[j] {
				t.Fatal("fold contents differ under same seed")
			}
		}
	}
}

func TestCrossValidateForest(t *testing.T) {
	X, y := noisyData(600, 51)
	rep, err := CrossValidateForest(X, y, 3, 5, 2, ForestConfig{Trees: 15, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.75 {
		t.Errorf("CV accuracy %.3f", rep.Accuracy)
	}
	if rep.AUCROC < 0.85 {
		t.Errorf("CV AUC %.3f", rep.AUCROC)
	}
	// Aggregated confusion covers runs × n rows.
	if rep.Confusion.Total() != 2*600 {
		t.Errorf("confusion total %d", rep.Confusion.Total())
	}
	if _, err := CrossValidateForest(nil, nil, 3, 5, 1, ForestConfig{}); err == nil {
		t.Error("empty CV accepted")
	}
}

// TestCrossValidateDegenerateFolds: KFold clamps k to n, so one row
// leaves a fold with nothing to train on. That, like an empty set, is
// an error, not a panic in the bootstrap draw.
func TestCrossValidateDegenerateFolds(t *testing.T) {
	for _, c := range []struct {
		name string
		X    [][]float64
		y    []int
	}{{"empty", nil, nil}, {"one row", [][]float64{{1, 2}}, []int{1}}} {
		for _, workers := range []int{1, 2} {
			cfg := ForestConfig{Trees: 3, Seed: 1, Workers: workers}
			if _, err := CrossValidateForest(c.X, c.y, 2, 10, 1, cfg); !errors.Is(err, ErrBadTrainingData) {
				t.Errorf("%s/workers=%d: CrossValidateForest err %v", c.name, workers, err)
			}
			if _, _, err := TrainForestCV(c.X, c.y, 2, 10, 1, cfg, nil); !errors.Is(err, ErrBadTrainingData) {
				t.Errorf("%s/workers=%d: TrainForestCV err %v", c.name, workers, err)
			}
		}
	}
}

// BenchmarkCrossValidateForest runs the bootstrap's §5.4 protocol shape
// — 10 folds × 1 run of 40 depth-24, single-sample-leaf trees on the
// 8,640×89 S-shaped set BenchmarkTrainForest uses — with the folds on
// one worker and on GOMAXPROCS workers.
func BenchmarkCrossValidateForest(b *testing.B) {
	X, y := sShapedData(8640, 31)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := ForestConfig{Trees: 40, MaxDepth: 24, MinLeaf: 1, Seed: 32, Workers: bc.workers}
			for b.Loop() {
				if _, err := CrossValidateForest(X, y, 4, 10, 1, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestVarianceFilter(t *testing.T) {
	rng := stats.NewRand(61)
	X := make([][]float64, 200)
	for i := range X {
		X[i] = []float64{
			1.0,                  // constant → dropped
			rng.Float64(),        // normal variance → kept
			rng.Float64() * 1000, // huge variance → dropped at q=0.5
			rng.Float64() * 1.1,  // similar to f1 → kept
		}
	}
	keep := VarianceFilter(X, 0.9)
	kept := map[int]bool{}
	for _, f := range keep {
		kept[f] = true
	}
	if kept[0] {
		t.Error("constant feature survived")
	}
	if !kept[1] || !kept[3] {
		t.Errorf("normal features dropped: %v", keep)
	}
	if kept[2] {
		t.Error("high-variance feature survived q=0.9 filter")
	}
	if VarianceFilter(nil, 0.9) != nil {
		t.Error("empty input")
	}
}

func TestCorrelationFilter(t *testing.T) {
	rng := stats.NewRand(62)
	X := make([][]float64, 300)
	for i := range X {
		a := rng.Float64()
		X[i] = []float64{a, a * 2, rng.Float64(), -a}
	}
	keep := CorrelationFilter(X, []int{0, 1, 2, 3}, 0.95)
	kept := map[int]bool{}
	for _, f := range keep {
		kept[f] = true
	}
	if !kept[0] || !kept[2] {
		t.Errorf("independent features dropped: %v", keep)
	}
	if kept[1] || kept[3] {
		t.Errorf("perfectly correlated features kept: %v", keep)
	}
	if CorrelationFilter(nil, []int{0}, 0.9) != nil {
		t.Error("empty input")
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if r := pearson(a, a); math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation %v", r)
	}
	b := []float64{4, 3, 2, 1}
	if r := pearson(a, b); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti correlation %v", r)
	}
	c := []float64{5, 5, 5, 5}
	if r := pearson(a, c); r != 0 {
		t.Errorf("constant correlation %v", r)
	}
}

func TestSelectColumns(t *testing.T) {
	X := [][]float64{{1, 2, 3}, {4, 5, 6}}
	out := SelectColumns(X, []int{2, 0})
	if out[0][0] != 3 || out[0][1] != 1 || out[1][0] != 6 || out[1][1] != 4 {
		t.Errorf("projection wrong: %v", out)
	}
}
