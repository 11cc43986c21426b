package mlkit

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"yourandvalue/internal/stats"
)

// This file keeps the original CART induction — gather the node's
// values, sort them, then rescan the node once per candidate threshold —
// as the reference the rank-histogram split search must reproduce node
// for node. It is deliberately the simple, slow form; it is never used
// outside tests.

// refTrainForest is TrainForest as a one-tree-at-a-time loop over
// copied bootstrap rows, built with refTrainTree.
func refTrainForest(X [][]float64, y []int, classes int, cfg ForestConfig) *Forest {
	d := len(X[0])
	cfg = cfg.withDefaults(d)
	rng := stats.NewRand(cfg.Seed)
	f := &Forest{Classes: classes, importance: make([]float64, d)}
	n := len(X)
	sampleX := make([][]float64, n)
	sampleY := make([]int, n)
	bags := make([]bool, cfg.Trees*n)
	for t := 0; t < cfg.Trees; t++ {
		inBag := bags[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			sampleX[i] = X[j]
			sampleY[i] = y[j]
			inBag[j] = true
		}
		tree := refTrainTree(sampleX, sampleY, classes, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: cfg.MaxFeatures,
			Seed:        rng.Int63(),
		})
		f.Trees = append(f.Trees, tree)
		for i, v := range tree.importance {
			f.importance[i] += v
		}
	}
	oobVotes := make([]int, n*classes)
	for t, tree := range f.Trees {
		inBag := bags[t*n : (t+1)*n]
		for i := 0; i < n; i++ {
			if !inBag[i] {
				oobVotes[i*classes+tree.Predict(X[i])]++
			}
		}
	}
	wrong, counted := 0, 0
	for i := 0; i < n; i++ {
		votes := oobVotes[i*classes : (i+1)*classes]
		total := 0
		best, bestN := 0, -1
		for c, v := range votes {
			total += v
			if v > bestN {
				best, bestN = c, v
			}
		}
		if total == 0 {
			continue
		}
		counted++
		if best != y[i] {
			wrong++
		}
	}
	if counted > 0 {
		f.oobError = float64(wrong) / float64(counted)
	}
	return f
}

// refCrossValidateForest is CrossValidateForest as it was first
// written: per fold, gather the training and test rows, train a whole
// forest on them, flatten it and score the test rows.
func refCrossValidateForest(X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig) (Report, error) {
	if len(X) == 0 || len(X) != len(y) {
		return Report{}, ErrBadTrainingData
	}
	if runs <= 0 {
		runs = 1
	}
	agg := Report{Confusion: NewConfusion(classes)}
	count := 0
	for run := 0; run < runs; run++ {
		folds := KFold(len(X), k, cfg.Seed+int64(run)*7919)
		for fi, fold := range folds {
			trX := gather(X, fold.TrainIdx)
			trY := gatherInt(y, fold.TrainIdx)
			teX := gather(X, fold.TestIdx)
			teY := gatherInt(y, fold.TestIdx)
			fcfg := cfg
			fcfg.Seed = cfg.Seed + int64(run*1000+fi)
			forest, err := TrainForest(trX, trY, classes, fcfg)
			if err != nil {
				return Report{}, err
			}
			flat := forest.Flat()
			rep := evaluateInto(teX, teY, classes, flat.Predict, flat.PredictProbaInto)
			agg.Accuracy += rep.Accuracy
			agg.FPRate += rep.FPRate
			agg.Precision += rep.Precision
			agg.Recall += rep.Recall
			agg.AUCROC += rep.AUCROC
			for a := 0; a < classes; a++ {
				for p := 0; p < classes; p++ {
					agg.Confusion.Cells[a][p] += rep.Confusion.Cells[a][p]
				}
			}
			count++
		}
	}
	f := float64(count)
	agg.Accuracy /= f
	agg.FPRate /= f
	agg.Precision /= f
	agg.Recall /= f
	agg.AUCROC /= f
	return agg, nil
}

func gather(X [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = X[j]
	}
	return out
}

func gatherInt(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}

// evaluateInto is Evaluate for Into-style classifiers: probaInto fills
// a caller-owned row of length classes.
func evaluateInto(X [][]float64, y []int, classes int,
	predict func([]float64) int, probaInto func(dst, x []float64)) Report {
	cm := NewConfusion(classes)
	backing := make([]float64, len(X)*classes)
	probs := make([][]float64, len(X))
	for i, x := range X {
		cm.Add(y[i], predict(x))
		row := backing[i*classes : (i+1)*classes]
		probaInto(row, x)
		probs[i] = row
	}
	return assembleReport(cm, probs, y, classes)
}

// refForestPredict is the pointer forest's majority vote — each tree's
// Tree.Predict, ties to the lower class — that every FlatForest walk
// must reproduce. The vote tally lives on the stack for up to 16
// classes, so the pointer leg of BenchmarkForestPredict allocates
// nothing.
func refForestPredict(f *Forest, x []float64) int {
	var buf [16]int
	var votes []int
	if f.Classes <= len(buf) {
		votes = buf[:f.Classes]
	} else {
		votes = make([]int, f.Classes)
	}
	for _, t := range f.Trees {
		votes[t.Predict(x)]++
	}
	best, bestN := 0, -1
	for c, v := range votes {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return best
}

// refForestProba is the pointer forest's vote-share class distribution
// for x, the reference FlatForest.PredictProbaInto must match bit for
// bit (same counts, same division).
func refForestProba(f *Forest, x []float64) []float64 {
	p := make([]float64, f.Classes)
	if len(f.Trees) == 0 {
		return p
	}
	for _, t := range f.Trees {
		p[t.Predict(x)]++
	}
	for c := range p {
		p[c] /= float64(len(f.Trees))
	}
	return p
}

// refRepresentativeTree is RepresentativeTree on the pointer walk: the
// forest vote and every tree's vote per row.
func refRepresentativeTree(f *Forest, X [][]float64) *Tree {
	if len(f.Trees) == 0 {
		return nil
	}
	if len(X) == 0 {
		return f.Trees[0]
	}
	forestPred := make([]int, len(X))
	for i, x := range X {
		forestPred[i] = refForestPredict(f, x)
	}
	best, bestAgree := f.Trees[0], -1
	for _, t := range f.Trees {
		agree := 0
		for i, x := range X {
			if t.Predict(x) == forestPred[i] {
				agree++
			}
		}
		if agree > bestAgree {
			best, bestAgree = t, agree
		}
	}
	return best
}

// refTrainTree is TrainTree without input validation (callers pass
// well-formed data).
func refTrainTree(X [][]float64, y []int, classes int, cfg TreeConfig) *Tree {
	cfg = cfg.withDefaults()
	b := &refBuilder{
		X: X, y: y, classes: classes, cfg: cfg,
		rng:        stats.NewRand(cfg.Seed),
		importance: make([]float64, len(X[0])),
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	root := b.build(idx, 0)
	return &Tree{Root: root, Classes: classes, importance: b.importance}
}

type refBuilder struct {
	X          [][]float64
	y          []int
	classes    int
	cfg        TreeConfig
	rng        *stats.Rand
	importance []float64
}

func (b *refBuilder) build(idx []int, depth int) *Node {
	counts := make([]int, b.classes)
	for _, i := range idx {
		counts[b.y[i]]++
	}
	if pure(counts) || len(idx) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return &Node{Leaf: true, Counts: counts}
	}
	feat, thr, gain, ok := b.bestSplit(idx, counts)
	if !ok {
		return &Node{Leaf: true, Counts: counts}
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return &Node{Leaf: true, Counts: counts}
	}
	b.importance[feat] += gain * float64(len(idx))
	return &Node{
		Feature:   feat,
		Threshold: thr,
		Left:      b.build(left, depth+1),
		Right:     b.build(right, depth+1),
	}
}

func (b *refBuilder) bestSplit(idx []int, parentCounts []int) (feat int, thr float64, gain float64, ok bool) {
	d := len(b.X[0])
	nFeat := b.cfg.MaxFeatures
	if nFeat <= 0 || nFeat > d {
		nFeat = d
	}
	featOrder := b.rng.Perm(d)[:nFeat]

	parentGini := gini(parentCounts, len(idx))
	bestGain := 1e-12
	found := false

	vals := make([]float64, 0, len(idx))
	for _, f := range featOrder {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, b.X[i][f])
		}
		sort.Float64s(vals)
		if vals[0] == vals[len(vals)-1] {
			continue
		}
		for _, t := range refCandidateThresholds(vals, b.cfg.MaxThresholds) {
			leftCounts := make([]int, b.classes)
			nLeft := 0
			for _, i := range idx {
				if b.X[i][f] <= t {
					leftCounts[b.y[i]]++
					nLeft++
				}
			}
			nRight := len(idx) - nLeft
			if nLeft == 0 || nRight == 0 {
				continue
			}
			rightCounts := make([]int, b.classes)
			for c := range rightCounts {
				rightCounts[c] = parentCounts[c] - leftCounts[c]
			}
			g := parentGini -
				(float64(nLeft)*gini(leftCounts, nLeft)+
					float64(nRight)*gini(rightCounts, nRight))/float64(len(idx))
			if g > bestGain {
				bestGain, feat, thr, found = g, f, t, true
			}
		}
	}
	return feat, thr, bestGain, found
}

// refCandidateThresholds returns midpoints between distinct sorted
// values, subsampled to at most k via quantiles.
func refCandidateThresholds(sorted []float64, k int) []float64 {
	var mids []float64
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			mids = append(mids, (sorted[i]+sorted[i-1])/2)
		}
	}
	if len(mids) <= k {
		return mids
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, mids[i*(len(mids)-1)/(k-1)])
	}
	return out
}

// edgeData puts float values whose midpoints round onto a neighbour,
// overflow to ±Inf, or meet signed zeros into every column, next to a
// continuous column with far more than 32 distinct values.
func edgeData(n int, seed int64) ([][]float64, []int) {
	rng := stats.NewRand(seed)
	one, big := 1.0, math.MaxFloat64
	specials := []float64{
		math.Inf(-1), -big, -0.0, 0, one, math.Nextafter(one, 2),
		math.Nextafter(math.Nextafter(one, 2), 2), big / 2, big, math.Inf(1),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a := specials[rng.Intn(len(specials))]
		b := specials[rng.Intn(len(specials))]
		c := rng.Normal(0, 1)
		X[i] = []float64{a, b, c, 7}
		score := c
		if a >= one {
			score += 1
		}
		if b > 0 {
			score -= 0.5
		}
		y[i] = 0
		if score > 0.3 {
			y[i] = 1
		}
		if score > 1.2 {
			y[i] = 2
		}
	}
	return X, y
}

// infPairData has a column holding only -Inf and +Inf, whose one
// midpoint is NaN.
func infPairData() ([][]float64, []int) {
	X := make([][]float64, 40)
	y := make([]int, 40)
	for i := range X {
		v := math.Inf(1)
		if i%2 == 0 {
			v = math.Inf(-1)
		}
		X[i] = []float64{v, float64(i % 3)}
		y[i] = i % 2
	}
	return X, y
}

func sameNodes(t *testing.T, path string, got, want *Node) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil mismatch (got %v, want %v)", path, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Leaf != want.Leaf || got.Feature != want.Feature ||
		math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) ||
		!slices.Equal(got.Counts, want.Counts) {
		t.Fatalf("%s: got {leaf %v f %d t %v c %v}, want {leaf %v f %d t %v c %v}", path,
			got.Leaf, got.Feature, got.Threshold, got.Counts,
			want.Leaf, want.Feature, want.Threshold, want.Counts)
	}
	sameNodes(t, path+"L", got.Left, want.Left)
	sameNodes(t, path+"R", got.Right, want.Right)
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

type refCase struct {
	name    string
	X       [][]float64
	y       []int
	classes int
}

func refCases() []refCase {
	sX, sy := sShapedData(1500, 21)
	nX, ny := noisyData(900, 22)
	eX, ey := edgeData(700, 23)
	iX, iy := infPairData()
	cX := [][]float64{{3, 1}, {3, 1}, {3, 1}, {3, 1}}
	return []refCase{
		{"s-shaped", sX, sy, 4},
		{"continuous", nX, ny, 3},
		{"float-edges", eX, ey, 3},
		{"inf-pair", iX, iy, 2},
		{"all-constant", cX, []int{0, 1, 0, 1}, 2},
	}
}

var refTreeConfigs = []TreeConfig{
	{Seed: 1},
	{MaxDepth: 3, MinLeaf: 5, Seed: 2},
	{MaxDepth: 24, MinLeaf: 1, MaxFeatures: 3, Seed: 3},
	{MinLeaf: 4, MaxFeatures: 2, MaxThresholds: 5, Seed: 4},
}

// TestTreeMatchesReference pins the rank-histogram split search to the
// sort-and-rescan reference: same nodes, same threshold bits, same leaf
// counts, same importance.
func TestTreeMatchesReference(t *testing.T) {
	for _, c := range refCases() {
		for ci, cfg := range refTreeConfigs {
			got, err := TrainTree(c.X, c.y, c.classes, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", c.name, ci, err)
			}
			want := refTrainTree(c.X, c.y, c.classes, cfg)
			sameNodes(t, fmt.Sprintf("%s/%d:", c.name, ci), got.Root, want.Root)
			sameBits(t, c.name+" importance", got.importance, want.importance)
		}
	}
}

// TestForestMatchesReference checks whole forests — bootstrap draws,
// tree seeds, every tree, summed importance and OOB error — against the
// sequential reference at several worker counts, including more workers
// than trees.
func TestForestMatchesReference(t *testing.T) {
	cfgs := []ForestConfig{
		{Trees: 6, Seed: 5},
		{Trees: 5, MaxDepth: 24, MinLeaf: 1, Seed: 6},
		{Trees: 4, MaxDepth: 2, MinLeaf: 3, MaxFeatures: 2, Seed: 7},
	}
	for _, c := range refCases() {
		for ci, cfg := range cfgs {
			want := refTrainForest(c.X, c.y, c.classes, cfg)
			for _, workers := range []int{1, 2, 7} {
				cfg.Workers = workers
				name := fmt.Sprintf("%s/%d/workers=%d", c.name, ci, workers)
				got, err := TrainForest(c.X, c.y, c.classes, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got.Trees) != len(want.Trees) {
					t.Fatalf("%s: %d trees, want %d", name, len(got.Trees), len(want.Trees))
				}
				for i := range got.Trees {
					sameNodes(t, fmt.Sprintf("%s tree %d:", name, i), got.Trees[i].Root, want.Trees[i].Root)
					sameBits(t, name+" tree importance", got.Trees[i].importance, want.Trees[i].importance)
				}
				sameBits(t, name+" importance", got.importance, want.importance)
				if math.Float64bits(got.OOBError()) != math.Float64bits(want.OOBError()) {
					t.Fatalf("%s: OOB %v, want %v", name, got.OOBError(), want.OOBError())
				}
			}
		}
	}
}

func sameReport(t *testing.T, what string, got, want Report) {
	t.Helper()
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"Accuracy", got.Accuracy, want.Accuracy},
		{"FPRate", got.FPRate, want.FPRate},
		{"Precision", got.Precision, want.Precision},
		{"Recall", got.Recall, want.Recall},
		{"AUCROC", got.AUCROC, want.AUCROC},
	} {
		if math.Float64bits(m.got) != math.Float64bits(m.want) {
			t.Fatalf("%s: %s = %v, want %v", what, m.name, m.got, m.want)
		}
	}
	for a, row := range want.Confusion.Cells {
		if !slices.Equal(got.Confusion.Cells[a], row) {
			t.Fatalf("%s: confusion row %d = %v, want %v", what, a, got.Confusion.Cells[a], row)
		}
	}
}

// TestCrossValidateMatchesReference pins the streamed, fold-parallel
// cross-validation to the gather-train-flatten-score reference, bit for
// bit, at several worker counts including more workers than folds.
// TrainForestCV must return the same report and the forest TrainForest
// trains, and hand that forest to its callback exactly once.
func TestCrossValidateMatchesReference(t *testing.T) {
	nX, ny := noisyData(300, 24)
	sX, sy := sShapedData(400, 25)
	// Rare one-hot columns: one set in a single row, one in two rows, so
	// some folds hold them constant although the whole set does not.
	rX := slices.Clone(sX)
	for i := range 2 {
		rX[i] = slices.Clone(sX[i])
		rX[i][60+i] = 1
		rX[i][61] = 1
	}
	cases := []struct {
		name           string
		X              [][]float64
		y              []int
		classes, k, rn int
		cfg            ForestConfig
	}{
		{"noisy", nX, ny, 3, 5, 1, ForestConfig{Trees: 6, Seed: 26}},
		{"noisy-runs", nX, ny, 3, 4, 3, ForestConfig{Trees: 4, MaxDepth: 5, MinLeaf: 3, Seed: 27}},
		{"s-shaped", sX, sy, 4, 10, 1, ForestConfig{Trees: 5, MaxDepth: 24, MinLeaf: 1, Seed: 28}},
		{"rare-columns", rX, sy, 4, 10, 1, ForestConfig{Trees: 4, MaxDepth: 24, MinLeaf: 1, MaxFeatures: 89, Seed: 30}},
		{"s-shaped-runs", sX, sy, 4, 3, 2, ForestConfig{Trees: 3, MaxDepth: 24, MinLeaf: 1, MaxFeatures: 22, Seed: 29}},
	}
	for _, c := range cases {
		want, err := refCrossValidateForest(c.X, c.y, c.classes, c.k, c.rn, c.cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		for _, workers := range []int{1, 2, 7} {
			cfg := c.cfg
			cfg.Workers = workers
			name := fmt.Sprintf("%s/workers=%d", c.name, workers)
			got, err := CrossValidateForest(c.X, c.y, c.classes, c.k, c.rn, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameReport(t, name, got, want)

			calls := 0
			var handed *Forest
			forest, rep, err := TrainForestCV(c.X, c.y, c.classes, c.k, c.rn, cfg, func(f *Forest) {
				calls++
				handed = f
			})
			if err != nil {
				t.Fatalf("%s: TrainForestCV: %v", name, err)
			}
			sameReport(t, name+" TrainForestCV", rep, want)
			if calls != 1 || handed != forest {
				t.Fatalf("%s: callback ran %d times with %p, forest %p", name, calls, handed, forest)
			}
			ref, err := TrainForest(c.X, c.y, c.classes, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range ref.Trees {
				sameNodes(t, fmt.Sprintf("%s tree %d:", name, i), forest.Trees[i].Root, ref.Trees[i].Root)
			}
			sameBits(t, name+" importance", forest.importance, ref.importance)
			if math.Float64bits(forest.OOBError()) != math.Float64bits(ref.OOBError()) {
				t.Fatalf("%s: OOB %v, want %v", name, forest.OOBError(), ref.OOBError())
			}
		}
	}
}
