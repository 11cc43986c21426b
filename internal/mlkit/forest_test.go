package mlkit

import (
	"math"
	"runtime"
	"testing"

	"yourandvalue/internal/stats"
)

// noisyData: class depends on x0 and x1; x2..x9 are pure noise.
func noisyData(n int, seed int64) ([][]float64, []int) {
	rng := stats.NewRand(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, 10)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		score := 2*row[0] + row[1] + rng.Normal(0, 0.15)
		switch {
		case score < 1.0:
			y[i] = 0
		case score < 1.8:
			y[i] = 1
		default:
			y[i] = 2
		}
	}
	return X, y
}

// sShapedData mimics the PME's S-vector training sets: one-hot groups
// (binary columns, many constant), a few small-cardinality slot
// dimensions, and 4 price classes that depend on some of them with
// noise. 89 columns: 35 constant, 51 binary, 3 with 4–5 values.
func sShapedData(n int, seed int64) ([][]float64, []int) {
	rng := stats.NewRand(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, 89)
		// Columns 0..50: three one-hot groups of 17 (ADX, city, IAB-ish).
		for g := 0; g < 3; g++ {
			row[g*17+rng.Intn(17)] = 1
		}
		// Columns 51..53: slot width, height, area classes.
		row[51] = float64(rng.Intn(5))
		row[52] = float64(rng.Intn(4))
		row[53] = float64(50 * (1 + rng.Intn(5)))
		// Columns 54..88 stay constant (unused one-hot slots).
		X[i] = row
		score := 0.6*row[51] + 0.5*row[52] + 2*row[3] + 1.5*row[20] - row[40] + rng.Normal(0, 0.8)
		switch {
		case score < 1.5:
			y[i] = 0
		case score < 2.5:
			y[i] = 1
		case score < 3.5:
			y[i] = 2
		default:
			y[i] = 3
		}
	}
	return X, y
}

func TestForestAccuracy(t *testing.T) {
	X, y := noisyData(1200, 1)
	f, err := TrainForest(X, y, 3, ForestConfig{Trees: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := noisyData(400, 3)
	correct := 0
	for i, x := range Xt {
		if refForestPredict(f, x) == yt[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(Xt))
	if acc < 0.80 {
		t.Errorf("forest test accuracy %.3f", acc)
	}
	if f.OOBError() > 0.25 || f.OOBError() <= 0 {
		t.Errorf("OOB error = %v", f.OOBError())
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := noisyData(300, 5)
	a, _ := TrainForest(X, y, 3, ForestConfig{Trees: 10, Seed: 9})
	b, _ := TrainForest(X, y, 3, ForestConfig{Trees: 10, Seed: 9})
	for _, x := range X[:50] {
		if refForestPredict(a, x) != refForestPredict(b, x) {
			t.Fatal("same seed, different predictions")
		}
	}
	if a.OOBError() != b.OOBError() {
		t.Fatal("same seed, different OOB")
	}
}

func TestForestImportanceRanksSignal(t *testing.T) {
	X, y := noisyData(1500, 11)
	f, err := TrainForest(X, y, 3, ForestConfig{Trees: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importance()
	top := f.TopFeatures(2)
	// x0 (weight 2) must rank first; x1 second.
	if top[0] != 0 {
		t.Errorf("top feature = %d (importances %v)", top[0], imp)
	}
	if top[1] != 1 {
		t.Errorf("second feature = %d", top[1])
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sum %v", sum)
	}
}

func TestForestProba(t *testing.T) {
	X, y := noisyData(500, 13)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 20, Seed: 14})
	for _, x := range X[:100] {
		p := refForestProba(f, x)
		sum := 0.0
		maxC, maxP := 0, -1.0
		for c, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
			if v > maxP {
				maxC, maxP = c, v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("proba sum %v", sum)
		}
		if maxC != refForestPredict(f, x) {
			t.Fatal("argmax proba disagrees with Predict")
		}
	}
}

func TestForestValidation(t *testing.T) {
	if _, err := TrainForest(nil, nil, 3, ForestConfig{}); err != ErrBadTrainingData {
		t.Error("empty forest data accepted")
	}
	if _, err := TrainForest([][]float64{{1}, {2}}, []int{0}, 2, ForestConfig{}); err != ErrBadTrainingData {
		t.Error("length mismatch accepted")
	}
	if _, err := TrainForest([][]float64{{1, 2}, {3}}, []int{0, 1}, 2, ForestConfig{}); err != ErrBadTrainingData {
		t.Error("ragged rows accepted")
	}
	if _, err := TrainForest([][]float64{{1}, {2}}, []int{0, 2}, 2, ForestConfig{}); err != ErrBadTrainingData {
		t.Error("out-of-range label accepted")
	}
	if _, err := TrainForest([][]float64{{1}, {2}}, []int{-1, 0}, 2, ForestConfig{}); err != ErrBadTrainingData {
		t.Error("negative label accepted")
	}
	if _, err := TrainForest([][]float64{{1, 0}, {2, math.NaN()}}, []int{0, 1}, 2, ForestConfig{}); err != ErrBadTrainingData {
		t.Error("NaN feature accepted")
	}
}

func TestRepresentativeTree(t *testing.T) {
	X, y := noisyData(600, 15)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 15, Seed: 16})
	rep := f.RepresentativeTree(X)
	if rep == nil {
		t.Fatal("nil representative")
	}
	agree := 0
	for _, x := range X {
		if rep.Predict(x) == refForestPredict(f, x) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(X)); frac < 0.7 {
		t.Errorf("representative agreement %.3f", frac)
	}
	// The flat-engine pick is the pointer-walk pick, on forests with few
	// and many trees and on data where several trees tie.
	sX, sy := sShapedData(500, 17)
	for _, c := range []struct {
		X   [][]float64
		y   []int
		cfg ForestConfig
	}{
		{X, y, ForestConfig{Trees: 15, Seed: 16}},
		{X, y, ForestConfig{Trees: 3, MaxDepth: 2, Seed: 18}},
		{sX, sy, ForestConfig{Trees: 25, MaxDepth: 24, MinLeaf: 1, Seed: 19}},
		{sX, sy, ForestConfig{Trees: 8, MaxDepth: 1, Seed: 20}},
	} {
		f, err := TrainForest(c.X, c.y, 4, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range [][][]float64{c.X, c.X[:7], c.X[:1]} {
			if got, want := f.RepresentativeTree(rows), refRepresentativeTree(f, rows); got != want {
				t.Errorf("seed %d, %d rows: picked tree %p, pointer walk picks %p", c.cfg.Seed, len(rows), got, want)
			}
		}
	}
	if f.RepresentativeTree(nil) == nil {
		t.Error("empty-sample representative should fall back to first tree")
	}
	empty := &Forest{Classes: 2}
	if empty.RepresentativeTree(X) != nil {
		t.Error("empty forest should return nil")
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 4: 2, 10: 4, 100: 10, 150: 13}
	for n, want := range cases {
		if got := isqrt(n); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTopIndices(t *testing.T) {
	got := topIndices([]float64{0.1, 0.5, 0.3, 0.5}, 3)
	// Ties (indices 1,3 at 0.5) break to lower index.
	if got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Errorf("topIndices = %v", got)
	}
	if n := len(topIndices([]float64{1, 2}, 10)); n != 2 {
		t.Errorf("over-long k returned %d", n)
	}
}

// BenchmarkTrainForest trains the PME's bootstrap forest shape — 40
// depth-24, single-sample-leaf trees on an 8,640×89 S-shaped set — one
// tree at a time and with trees fanned out over GOMAXPROCS workers.
func BenchmarkTrainForest(b *testing.B) {
	X, y := sShapedData(8640, 31)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := ForestConfig{Trees: 40, MaxDepth: 24, MinLeaf: 1, Seed: 32, Workers: bc.workers}
			for b.Loop() {
				if _, err := TrainForest(X, y, 4, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepresentativeTree picks the representative tree of
// BenchmarkTrainForest's bootstrap-shaped forest over its 8,640
// training rows, as the PME's ready callback does after every training.
func BenchmarkRepresentativeTree(b *testing.B) {
	X, y := sShapedData(8640, 31)
	f, err := TrainForest(X, y, 4, ForestConfig{Trees: 40, MaxDepth: 24, MinLeaf: 1, Seed: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		f.RepresentativeTree(X)
	}
}
