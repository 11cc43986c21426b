package mlkit

import (
	"math"
	"testing"

	"yourandvalue/internal/stats"
)

// trainTree grows one CART tree with the forest's builder on every row
// of X (n×d) with integer class labels y in [0, classes), and keeps its
// pointer nodes. Features must not be NaN.
func trainTree(X [][]float64, y []int, classes int, cfg TreeConfig) (*refTree, error) {
	cols, err := newColumns(X, y, classes)
	if err != nil {
		return nil, err
	}
	w := make([]int32, len(X))
	for i := range w {
		w[i] = 1
	}
	cfg = cfg.withDefaults()
	b := newTreeBuilder(cols, cfg)
	root := b.grow(w, cfg.Seed)
	return &refTree{root: root, importance: b.importance}, nil
}

// axisData builds a trivially separable 2-class problem: class = x0 > 0.5.
func axisData(n int, seed int64) ([][]float64, []int) {
	rng := stats.NewRand(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if X[i][0] > 0.5 {
			y[i] = 1
		}
	}
	return X, y
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	X, y := axisData(400, 1)
	tree, err := trainTree(X, y, 2, TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := axisData(200, 2)
	wrong := 0
	for i, x := range Xt {
		if tree.predict(x) != yt[i] {
			wrong++
		}
	}
	if wrong > 4 {
		t.Errorf("axis split: %d/200 wrong", wrong)
	}
	if tree.root.leaf {
		t.Error("tree did not split")
	}
	if tree.flat(2).NodeCount() < 3 {
		t.Error("node count")
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	// XOR requires depth ≥ 2; single-split models fail it.
	rng := stats.NewRand(3)
	var X [][]float64
	var y []int
	for i := 0; i < 800; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		if (a > 0.5) != (b > 0.5) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tree, err := trainTree(X, y, 2, TreeConfig{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, x := range X {
		if tree.predict(x) != y[i] {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(X)); frac > 0.05 {
		t.Errorf("XOR training error %.3f", frac)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := trainTree(nil, nil, 2, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("empty data accepted")
	}
	if _, err := trainTree([][]float64{{1}}, []int{0}, 1, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("single class accepted")
	}
	if _, err := trainTree([][]float64{{1}, {2}}, []int{0}, 2, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("length mismatch accepted")
	}
	if _, err := trainTree([][]float64{{1}, {2, 3}}, []int{0, 1}, 2, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("ragged rows accepted")
	}
	if _, err := trainTree([][]float64{{1}, {2}}, []int{0, 5}, 2, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("out-of-range label accepted")
	}
	if _, err := trainTree([][]float64{{1}, {2}}, []int{-1, 0}, 2, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("negative label accepted")
	}
	if _, err := trainTree([][]float64{{1, 0}, {math.NaN(), 1}}, []int{0, 1}, 2, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("NaN feature accepted")
	}
}

func TestTreePureLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	// All one class is legal as long as classes ≥ 2 declared.
	tree, err := trainTree(X, y, 2, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.root.leaf {
		t.Error("pure data should yield a leaf")
	}
	if tree.predict([]float64{99}) != 1 || tree.predict([]float64{0}) != 1 {
		t.Error("pure leaf prediction")
	}
}

// TestTreeMinLeafRespected: every leaf holds at least MinLeaf of the
// training rows, counted by walking each row down the flat tree.
func TestTreeMinLeafRespected(t *testing.T) {
	X, y := axisData(100, 5)
	tree, err := trainTree(X, y, 2, TreeConfig{MinLeaf: 20, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	ff := tree.flat(2)
	rows := make(map[int32]int)
	for _, x := range X {
		i := int32(0)
		for ff.Feats[i] >= 0 {
			i = ff.Kids[i] + b2i(!(x[ff.Feats[i]] <= ff.Thrs[i]))
		}
		rows[i]++
	}
	for i, ft := range ff.Feats {
		if ft < 0 && rows[int32(i)] < 20 {
			t.Errorf("leaf %d holds %d < MinLeaf rows", i, rows[int32(i)])
		}
	}
	if len(rows) < 2 {
		t.Errorf("tree has %d leaves", len(rows))
	}
}

func TestTreeImportance(t *testing.T) {
	X, y := axisData(500, 7)
	tree, err := trainTree(X, y, 2, TreeConfig{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	imp := normalizeImportance(tree.importance)
	if len(imp) != 3 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sum = %v", sum)
	}
	if imp[0] < imp[1] || imp[0] < imp[2] {
		t.Errorf("informative feature not ranked first: %v", imp)
	}
}

func TestCandidateThresholdsCap(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	ths := candidateThresholds(nil, vals, 32)
	if len(ths) != 32 {
		t.Errorf("threshold cap: %d", len(ths))
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] <= ths[i-1] {
			t.Fatal("thresholds not increasing")
		}
	}
	few := candidateThresholds(nil, []float64{1, 2, 3}, 32)
	if len(few) != 2 {
		t.Errorf("small input thresholds: %v", few)
	}
}
