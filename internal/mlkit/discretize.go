package mlkit

import (
	"errors"
	"sort"
)

// Binner discretizes continuous prices into k classes. The paper (§5.1)
// clusters log-prices "into 4 classes, using an unsupervised equidistance
// model that finds the optimal splits between given prices using a method
// of leave-one-out estimate of the entropy of values in each class" — the
// optimum of which is the balanced (maximum-entropy) partition this
// implementation produces, with edges placed at price midpoints.
type Binner struct {
	// Edges are the k−1 ascending split points; class i covers
	// (Edges[i−1], Edges[i]].
	Edges []float64 `json:"edges"`
	// Reps are per-class representative prices (the median of training
	// values in each class) used to map a predicted class back to a CPM
	// estimate.
	Reps []float64 `json:"reps"`
}

// ErrBadBinning reports invalid discretization parameters.
var ErrBadBinning = errors.New("mlkit: invalid binning parameters")

// NewBinner builds a k-class maximum-entropy (balanced) discretization of
// values. Values are not log-transformed here: class membership is
// invariant to any monotone transform, so splitting raw prices at the
// quantiles is equivalent to splitting the §5.1 log-transformed ones.
func NewBinner(values []float64, k int) (*Binner, error) {
	if k < 2 || len(values) < k {
		return nil, ErrBadBinning
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	if s[0] == s[len(s)-1] {
		return nil, ErrBadBinning // constant values cannot be split
	}

	edges := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		// Quantile boundary at rank i/k, placed between neighbours so
		// membership is unambiguous.
		pos := i * len(s) / k
		if pos <= 0 {
			pos = 1
		}
		if pos >= len(s) {
			pos = len(s) - 1
		}
		edge := (s[pos-1] + s[pos]) / 2
		edges = append(edges, edge)
	}
	// Deduplicate degenerate edges (heavy ties); keep strictly increasing.
	dedup := edges[:0]
	for _, e := range edges {
		if len(dedup) == 0 || e > dedup[len(dedup)-1] {
			dedup = append(dedup, e)
		}
	}
	if len(dedup) == 0 {
		return nil, ErrBadBinning
	}
	b := &Binner{Edges: dedup}
	b.Reps = b.representatives(s)
	return b, nil
}

// Classes returns the number of classes (len(Edges)+1).
func (b *Binner) Classes() int { return len(b.Edges) + 1 }

// Class maps a price to its class index.
func (b *Binner) Class(v float64) int {
	i := sort.SearchFloat64s(b.Edges, v)
	// SearchFloat64s returns first edge ≥ v; values equal to an edge
	// belong to the lower class per the (lo, hi] convention.
	if i < len(b.Edges) && v == b.Edges[i] {
		return i
	}
	return i
}

// Representative returns the class's representative CPM (training median).
func (b *Binner) Representative(class int) float64 {
	if class < 0 || class >= len(b.Reps) {
		if len(b.Reps) == 0 {
			return 0
		}
		if class < 0 {
			return b.Reps[0]
		}
		return b.Reps[len(b.Reps)-1]
	}
	return b.Reps[class]
}

// Labels assigns every value its class.
func (b *Binner) Labels(values []float64) []int {
	out := make([]int, len(values))
	for i, v := range values {
		out[i] = b.Class(v)
	}
	return out
}

func (b *Binner) representatives(sorted []float64) []float64 {
	k := b.Classes()
	buckets := make([][]float64, k)
	for _, v := range sorted {
		c := b.Class(v)
		buckets[c] = append(buckets[c], v)
	}
	reps := make([]float64, k)
	for c, vals := range buckets {
		switch {
		case len(vals) == 0 && c > 0 && len(b.Edges) >= c:
			reps[c] = b.Edges[c-1]
		case len(vals) == 0:
			reps[c] = 0
		default:
			reps[c] = vals[len(vals)/2] // already sorted within bucket
		}
	}
	return reps
}
