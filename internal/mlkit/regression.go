package mlkit

import (
	"sort"

	"yourandvalue/internal/stats"
)

// RegressionTree is a CART regression tree (variance-reduction splitting).
// The paper first tried regression models for encrypted prices and found
// "the high variability of charge prices lead to low performance (high
// error)" (§5.4); this implementation exists so that finding is testable
// against the classification approach rather than assumed.
type RegressionTree struct {
	Root *RegNode
}

// RegNode is one regression-tree node; leaves carry the mean target.
type RegNode struct {
	Feature   int
	Threshold float64
	Left      *RegNode
	Right     *RegNode
	Leaf      bool
	Value     float64 // mean target at leaf
	N         int
}

// TrainRegressionTree fits a regression tree on X → y.
func TrainRegressionTree(X [][]float64, y []float64, cfg TreeConfig) (*RegressionTree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, ErrBadTrainingData
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, ErrBadTrainingData
		}
	}
	cfg = cfg.withDefaults()
	b := &regBuilder{X: X, y: y, cfg: cfg, rng: stats.NewRand(cfg.Seed)}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return &RegressionTree{Root: b.build(idx, 0)}, nil
}

type regBuilder struct {
	X    [][]float64
	y    []float64
	cfg  TreeConfig
	rng  *stats.Rand
	perm []int // the node's feature draw
}

func (b *regBuilder) stats(idx []int) (mean, sse float64) {
	sum := 0.0
	for _, i := range idx {
		sum += b.y[i]
	}
	mean = sum / float64(len(idx))
	for _, i := range idx {
		d := b.y[i] - mean
		sse += d * d
	}
	return
}

func (b *regBuilder) build(idx []int, depth int) *RegNode {
	mean, sse := b.stats(idx)
	if sse < 1e-12 || len(idx) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return &RegNode{Leaf: true, Value: mean, N: len(idx)}
	}
	feat, thr, ok := b.bestSplit(idx, sse)
	if !ok {
		return &RegNode{Leaf: true, Value: mean, N: len(idx)}
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
		return &RegNode{Leaf: true, Value: mean, N: len(idx)}
	}
	return &RegNode{
		Feature:   feat,
		Threshold: thr,
		Left:      b.build(left, depth+1),
		Right:     b.build(right, depth+1),
	}
}

func (b *regBuilder) bestSplit(idx []int, parentSSE float64) (feat int, thr float64, ok bool) {
	d := len(b.X[0])
	nFeat := b.cfg.MaxFeatures
	if nFeat <= 0 || nFeat > d {
		nFeat = d
	}
	bestGain := parentSSE * 1e-9
	found := false
	vals := make([]float64, 0, len(idx))
	b.perm = b.rng.PermInto(b.perm, d)
	for _, f := range b.perm[:nFeat] {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, b.X[i][f])
		}
		sort.Float64s(vals)
		if vals[0] == vals[len(vals)-1] {
			continue
		}
		for _, t := range candidateThresholds(nil, vals, b.cfg.MaxThresholds) {
			var sumL, sumR, sqL, sqR float64
			var nL, nR int
			for _, i := range idx {
				v := b.y[i]
				if b.X[i][f] <= t {
					sumL += v
					sqL += v * v
					nL++
				} else {
					sumR += v
					sqR += v * v
					nR++
				}
			}
			if nL == 0 || nR == 0 {
				continue
			}
			sseL := sqL - sumL*sumL/float64(nL)
			sseR := sqR - sumR*sumR/float64(nR)
			gain := parentSSE - (sseL + sseR)
			if gain > bestGain {
				bestGain, feat, thr, found = gain, f, t, true
			}
		}
	}
	return feat, thr, found
}

// Predict returns the leaf mean for x.
func (t *RegressionTree) Predict(x []float64) float64 {
	n := t.Root
	for n != nil && !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	if n == nil {
		return 0
	}
	return n.Value
}
