package mlkit

import (
	"math"

	"yourandvalue/internal/stats"
)

// VarianceFilter returns the indices of features whose sample variance is
// strictly positive and below the q-quantile of all positive variances
// (q in (0,1]; pass 0.99 to drop the top-1% noisiest features, the §5.1
// preprocessing: "filtered out features that did not vary at all (i.e.,
// constants) or had very high variance (99%) (i.e., likely to be noise)").
func VarianceFilter(X [][]float64, q float64) []int {
	if len(X) == 0 {
		return nil
	}
	d := len(X[0])
	variances := make([]float64, d)
	col := make([]float64, len(X))
	for f := 0; f < d; f++ {
		for i := range X {
			col[i] = X[i][f]
		}
		v, _ := stats.StdDev(col)
		variances[f] = v * v
	}
	var positive []float64
	for _, v := range variances {
		if v > 0 {
			positive = append(positive, v)
		}
	}
	if len(positive) == 0 {
		return nil
	}
	cut := math.Inf(1)
	if q > 0 && q < 1 {
		cut, _ = stats.Quantile(positive, q)
	}
	var keep []int
	for f, v := range variances {
		if v > 0 && v <= cut {
			keep = append(keep, f)
		}
	}
	return keep
}

// SelectColumns projects X onto the given feature indices.
func SelectColumns(X [][]float64, features []int) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		proj := make([]float64, len(features))
		for j, f := range features {
			proj[j] = row[f]
		}
		out[i] = proj
	}
	return out
}
