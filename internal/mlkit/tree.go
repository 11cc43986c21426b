// Package mlkit is the machine-learning substrate of the Price Modeling
// Engine: CART decision trees, random forests with out-of-bag error and
// impurity-based feature importance (the §5.1 dimensionality-reduction
// tool and the §5.4 encrypted-price classifier), entropy-balanced price
// discretization, variance/correlation feature filters, k-fold cross
// validation, and the evaluation metrics the paper reports (TP/FP rate,
// precision, recall, weighted one-vs-rest AUC-ROC).
//
// Everything is stdlib-only and deterministic under explicit seeds.
package mlkit

import (
	"errors"
	"math"
	"slices"
	"sort"

	"yourandvalue/internal/stats"
)

// TreeConfig controls CART induction.
type TreeConfig struct {
	// MaxDepth limits tree height; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features examined per split; 0 means
	// all (single trees) — forests pass √F.
	MaxFeatures int
	// MaxThresholds caps candidate thresholds per feature via quantile
	// subsampling (default 32), bounding induction cost on large data.
	MaxThresholds int
	// Seed drives feature subsampling.
	Seed int64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MaxThresholds <= 0 {
		c.MaxThresholds = 32
	}
	return c
}

// node is one node of a tree being built. Leaves carry the class
// their training samples vote for; internal nodes split on feature ≤
// threshold (left) vs > (right). Nodes live only until the tree is laid
// out in flat form (see appendTree): every model is a FlatForest.
type node struct {
	feature     int
	threshold   float64
	left, right *node
	leaf        bool
	class       int32 // a leaf's argmax class, ties to the lower index
}

// ErrBadTrainingData reports shape problems and NaN features.
var ErrBadTrainingData = errors.New("mlkit: invalid training data")

// columns is a training matrix laid out for split search: per feature,
// its distinct values in ascending order (dict) and each row's index
// into them (rank), column-major. A node's class counts per value and
// its candidate thresholds then come from one pass over its rows' ranks,
// with no float gathering or sorting per node. Built once per
// TrainForest and shared read-only by every tree.
type columns struct {
	dict     [][]float64
	rank     [][]int32
	y        []int
	classes  int
	maxRanks int // longest dict
}

// newColumns validates X and y and builds their rank columns. NaN is
// rejected: it has no place in a sorted dictionary, and a ≤ threshold
// test would send it right at every node. Rows, ranks and classes are
// stored as int32.
func newColumns(X [][]float64, y []int, classes int) (*columns, error) {
	if len(X) == 0 || len(X) != len(y) || classes < 2 ||
		len(X) > math.MaxInt32 || classes > math.MaxInt32 {
		return nil, ErrBadTrainingData
	}
	n, d := len(X), len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, ErrBadTrainingData
		}
		for _, v := range row {
			if math.IsNaN(v) {
				return nil, ErrBadTrainingData
			}
		}
	}
	for _, c := range y {
		if c < 0 || c >= classes {
			return nil, ErrBadTrainingData
		}
	}
	cols := &columns{
		dict: make([][]float64, d), rank: make([][]int32, d),
		y: y, classes: classes,
	}
	ranks := make([]int32, n*d)
	vals := make([]float64, n)
	for f := range d {
		for i, row := range X {
			vals[i] = row[f]
		}
		sort.Float64s(vals)
		dict := []float64{vals[0]}
		for _, v := range vals[1:] {
			if v != dict[len(dict)-1] {
				dict = append(dict, v)
			}
		}
		rank := ranks[f*n : (f+1)*n]
		for i, row := range X {
			rank[i] = int32(sort.SearchFloat64s(dict, row[f]))
		}
		cols.dict[f], cols.rank[f] = dict, rank
		cols.maxRanks = max(cols.maxRanks, len(dict))
	}
	return cols, nil
}

// treeBuilder grows trees over shared columns. Its scratch buffers are
// reused across nodes and across the trees one worker builds, so a
// builder must not be shared between goroutines.
type treeBuilder struct {
	cols       *columns
	cfg        TreeConfig
	rng        *stats.Rand
	importance []float64

	classCounts []int // the node being built's per-class weights

	perm        []int     // the node's feature draw
	rows        []sample  // the tree's rows; each node owns a sub-slice
	spill       []sample  // partition scratch for right-hand rows
	hist        []int     // rank×class weights of the feature being scanned
	rankN       []int     // weight per rank of that feature
	present     []int32   // ranks occurring at the node, ascending
	vals        []float64 // their dictionary values
	thresholds  []float64
	left, right []int // per-class weights either side of a threshold
}

func newTreeBuilder(cols *columns, cfg TreeConfig) *treeBuilder {
	return &treeBuilder{
		cols:        cols,
		cfg:         cfg,
		classCounts: make([]int, cols.classes),
		hist:        make([]int, cols.maxRanks*cols.classes),
		rankN:       make([]int, cols.maxRanks),
		left:        make([]int, cols.classes),
		right:       make([]int, cols.classes),
	}
}

// sample is one training row of a tree: its index into the columns,
// its class, and its weight — how many times the tree's bootstrap drew
// it. Every count (node sizes, MinLeaf, leaf classes, Gini) is a weighted
// sum, the same as counting a duplicated row once per copy. Carrying the
// class and weight with the index keeps the split search's reads of
// them sequential.
type sample struct {
	row, class, weight int32
}

// grow builds one tree on the rows with non-zero weight in w, with
// feature subsampling seeded by seed, and returns its root. The tree's
// unnormalized per-feature impurity decrease is left in b.importance.
func (b *treeBuilder) grow(w []int32, seed int64) *node {
	b.rng = stats.NewRand(seed)
	b.importance = make([]float64, len(b.cols.dict))
	rows := b.rows[:0]
	for i, wi := range w {
		if wi > 0 {
			rows = append(rows, sample{row: int32(i), class: int32(b.cols.y[i]), weight: wi})
		}
	}
	b.rows = rows
	return b.build(rows, 0)
}

// counts returns the node's per-class weights, in b.classCounts, and
// their total.
func (b *treeBuilder) counts(rows []sample) ([]int, int) {
	c := b.classCounts
	clear(c)
	n := 0
	for _, s := range rows {
		c[s.class] += int(s.weight)
		n += int(s.weight)
	}
	return c, n
}

// newLeaf returns a leaf voting for the class with the most weight in
// counts, ties to the lower class index.
func newLeaf(counts []int) *node {
	best, bestN := 0, -1
	for c, v := range counts {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return &node{leaf: true, class: int32(best)}
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// build grows the subtree over rows, partitioning rows in place: the
// left child gets its prefix, the right child the rest, each still in
// ascending row order so the rank-column reads stay sequential. Nodes
// are visited in pre-order, left before right, which fixes the rng
// draws and the order importance is summed in. The node's counts are
// scratch that its children overwrite, so they are spent before the
// recursion.
func (b *treeBuilder) build(rows []sample, depth int) *node {
	counts, n := b.counts(rows)
	if pure(counts) || n < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return newLeaf(counts)
	}
	feat, thr, gain, ok := b.bestSplit(rows, counts, n)
	if !ok {
		return newLeaf(counts)
	}
	k, nLeft := b.partition(rows, feat, thr)
	if nLeft < b.cfg.MinLeaf || n-nLeft < b.cfg.MinLeaf {
		return newLeaf(counts)
	}
	b.importance[feat] += gain * float64(n)
	return &node{
		feature:   feat,
		threshold: thr,
		left:      b.build(rows[:k], depth+1),
		right:     b.build(rows[k:], depth+1),
	}
}

// partition stably moves the rows whose feat value is ≤ thr to the
// front. It returns how many rows moved and their total weight.
func (b *treeBuilder) partition(rows []sample, feat int, thr float64) (k, nLeft int) {
	dict, rank := b.cols.dict[feat], b.cols.rank[feat]
	right := b.spill[:0]
	for _, s := range rows {
		if dict[rank[s.row]] <= thr {
			rows[k] = s
			k++
			nLeft += int(s.weight)
		} else {
			right = append(right, s)
		}
	}
	copy(rows[k:], right)
	b.spill = right
	return k, nLeft
}

// bestSplit searches a random feature subset for the threshold maximizing
// Gini gain. Per feature, one pass over the node builds a rank×class
// histogram; the candidate thresholds are the midpoints between the
// node's distinct values (quantile-subsampled past MaxThresholds), and a
// sweep over the present ranks in ascending order gives each threshold's
// left-hand counts. A rank goes left when its dictionary value is ≤ the
// threshold — the same test the tree applies at prediction time — so a
// midpoint that rounds onto one of its neighbours splits exactly as it
// will be walked.
func (b *treeBuilder) bestSplit(rows []sample, parentCounts []int, n int) (feat int, thr float64, gain float64, ok bool) {
	d := len(b.cols.dict)
	nFeat := b.cfg.MaxFeatures
	if nFeat <= 0 || nFeat > d {
		nFeat = d
	}
	b.perm = b.rng.PermInto(b.perm, d)
	featOrder := b.perm[:nFeat]

	parentGini := gini(parentCounts, n)
	bestGain := 1e-12
	found := false

	classes := b.cols.classes
	hist, rankN := b.hist, b.rankN
	left, right := b.left, b.right
	for _, f := range featOrder {
		dict, rank := b.cols.dict[f], b.cols.rank[f]
		if len(dict) < 2 {
			continue // constant in the whole training set
		}
		present := b.present[:0]
		if len(dict) <= len(rows) {
			// Few values for the node's size: count blind, then find the
			// present ranks by walking the whole dictionary.
			for _, s := range rows {
				hist[int(rank[s.row])*classes+int(s.class)] += int(s.weight)
			}
			for r := range dict {
				n := 0
				for _, v := range hist[r*classes : (r+1)*classes] {
					n += v
				}
				if n > 0 {
					present = append(present, int32(r))
					rankN[r] = n
				}
			}
		} else {
			for _, s := range rows {
				r := rank[s.row]
				if rankN[r] == 0 {
					present = append(present, r)
				}
				rankN[r] += int(s.weight)
				hist[int(r)*classes+int(s.class)] += int(s.weight)
			}
			slices.Sort(present)
		}
		vals := b.vals[:0]
		for _, r := range present {
			vals = append(vals, dict[r])
		}
		b.thresholds = candidateThresholds(b.thresholds[:0], vals, b.cfg.MaxThresholds)

		// Midpoints of ascending values are non-decreasing (rounding is
		// monotone), so the sweep only moves forward. The one NaN midpoint
		// possible, between a lone -Inf and +Inf, is the only threshold
		// and correctly sends nothing left.
		clear(left)
		nLeft, p := 0, 0
		for _, t := range b.thresholds {
			for ; p < len(vals) && vals[p] <= t; p++ {
				r := int(present[p])
				nLeft += rankN[r]
				for c := range left {
					left[c] += hist[r*classes+c]
				}
			}
			nRight := n - nLeft
			if nLeft == 0 || nRight == 0 {
				continue
			}
			for c := range right {
				right[c] = parentCounts[c] - left[c]
			}
			g := parentGini -
				(float64(nLeft)*gini(left, nLeft)+
					float64(nRight)*gini(right, nRight))/float64(n)
			if g > bestGain {
				bestGain, feat, thr, found = g, f, t, true
			}
		}

		for _, r := range present {
			rankN[r] = 0
			clear(hist[int(r)*classes : int(r+1)*classes])
		}
		b.present, b.vals = present, vals
	}
	return feat, thr, bestGain, found
}

// candidateThresholds appends to dst the midpoints between distinct
// values of sorted, subsampled to at most k via quantiles.
func candidateThresholds(dst, sorted []float64, k int) []float64 {
	mids := dst[:0]
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			mids = append(mids, (sorted[i]+sorted[i-1])/2)
		}
	}
	if len(mids) <= k {
		return mids
	}
	// In place: entry i reads index i*(m-1)/(k-1) ≥ i, which no earlier
	// write has touched.
	m := len(mids)
	for i := 0; i < k; i++ {
		mids[i] = mids[i*(m-1)/(k-1)]
	}
	return mids[:k]
}

// normalizeImportance scales raw impurity decreases to sum to 1
// (all-zero if there were no splits).
func normalizeImportance(raw []float64) []float64 {
	out := make([]float64, len(raw))
	total := 0.0
	for _, v := range raw {
		total += v
	}
	if total <= 0 {
		return out
	}
	for i, v := range raw {
		out[i] = v / total
	}
	return out
}
