// Package stats provides the descriptive and inferential statistics
// substrate used throughout the yourandvalue reproduction: percentiles,
// empirical CDFs, histograms, the two-sample Kolmogorov–Smirnov test the
// paper uses to compare charge-price distributions, and the sample-size
// arithmetic from §5.2 that sizes the probing ad-campaigns.
//
// Everything here is deterministic and allocation-conscious: the analyzer
// computes distributions over hundreds of thousands of impressions per run.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by routines that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the five-number-style description used for the paper's
// box-plot figures (Figs 5, 6, 7, 10, 13, 15): the 5th, 10th, 50th, 90th
// and 95th percentiles plus mean, standard deviation, and count.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	P5   float64
	P10  float64
	P25  float64
	P50  float64
	P75  float64
	P90  float64
	P95  float64
}

// Summarize computes a Summary over xs. The input slice is not modified.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	sum, sumsq := 0.0, 0.0
	for _, x := range s {
		sum += x
		sumsq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := 0.0
	if len(s) > 1 {
		variance = (sumsq - n*mean*mean) / (n - 1)
		if variance < 0 {
			variance = 0 // guard against catastrophic cancellation
		}
	}
	return Summary{
		N:    len(s),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Min:  s[0],
		Max:  s[len(s)-1],
		P5:   quantileSorted(s, 0.05),
		P10:  quantileSorted(s, 0.10),
		P25:  quantileSorted(s, 0.25),
		P50:  quantileSorted(s, 0.50),
		P75:  quantileSorted(s, 0.75),
		P90:  quantileSorted(s, 0.90),
		P95:  quantileSorted(s, 0.95),
	}, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks (type-7, the R/NumPy default).
// The input is copied; xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

// quantileSorted assumes s is sorted ascending and non-empty.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median is shorthand for Quantile(xs, 0.5).
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the sample (n−1) standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	if len(xs) < 2 {
		if len(xs) == 0 {
			return 0, ErrEmpty
		}
		return 0, nil
	}
	mean, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// ECDF is an empirical cumulative distribution function built from a
// sample. It answers "what fraction of observations are ≤ x" in O(log n)
// and can be rendered as the (x, F(x)) series the paper plots in
// Figs 11, 16 and 17.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns F(x) = P[X ≤ x].
func (e *ECDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of values <= x, so search for the first value > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Quantile returns the q-quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 { return quantileSorted(e.sorted, q) }

// Points renders the ECDF as up to k (x, F(x)) pairs evenly spaced in rank,
// suitable for printing a CDF series like the paper's figures.
func (e *ECDF) Points(k int) []Point {
	if k <= 0 || len(e.sorted) == 0 {
		return nil
	}
	if k > len(e.sorted) {
		k = len(e.sorted)
	}
	pts := make([]Point, 0, k)
	for i := 0; i < k; i++ {
		idx := i * (len(e.sorted) - 1) / max(k-1, 1)
		x := e.sorted[idx]
		pts = append(pts, Point{X: x, Y: float64(idx+1) / float64(len(e.sorted))})
	}
	return pts
}

// Point is an (x, y) pair of a rendered series.
type Point struct{ X, Y float64 }

// KSResult reports a two-sample Kolmogorov–Smirnov test: the maximum
// distance D between the two empirical CDFs and the asymptotic p-value.
// The paper (§4.2, footnote 5) uses this test to show the time-of-day and
// day-of-week price distributions differ (p < 0.0002 and p < 0.002).
type KSResult struct {
	D      float64 // sup |F1(x) − F2(x)|
	P      float64 // asymptotic two-sided p-value
	N1, N2 int
}

// KolmogorovSmirnov runs the two-sample KS test on xs and ys.
func KolmogorovSmirnov(xs, ys []float64) (KSResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return KSResult{}, ErrEmpty
	}
	a := make([]float64, len(xs))
	copy(a, xs)
	sort.Float64s(a)
	b := make([]float64, len(ys))
	copy(b, ys)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	n1, n2 := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/n1 - float64(j)/n2)
		if diff > d {
			d = diff
		}
	}
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, P: ksProbability(lambda), N1: len(a), N2: len(b)}, nil
}

// ksProbability evaluates the Kolmogorov distribution complementary CDF
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}, the standard asymptotic p-value.
func ksProbability(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // observations < Lo
	Over   int // observations ≥ Hi
	total  int
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, errors.New("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // float edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// SampleSizeForMean implements the §5.2 formula n = (Z_{α/2}·σ / d)²: the
// number of independent setups needed so the sample mean is within margin d
// of the true mean at the given confidence (e.g. 0.95), ignoring the finite
// population correction exactly as the paper does ("a more conservative
// approximation of n").
func SampleSizeForMean(std, margin, confidence float64) (int, error) {
	if std <= 0 || margin <= 0 || confidence <= 0 || confidence >= 1 {
		return 0, errors.New("stats: invalid sample size parameters")
	}
	z := ZScore(confidence)
	n := z * std / margin
	return int(math.Ceil(n * n)), nil
}

// MarginOfError inverts SampleSizeForMean: d = Z_{α/2}·σ/√n, the expected
// error on the mean given n setups — the quantity the paper evaluates for
// its 144 proposed setups (±0.35 CPM) and for 185 impressions (±0.1 CPM).
func MarginOfError(std float64, n int, confidence float64) (float64, error) {
	if std <= 0 || n <= 0 || confidence <= 0 || confidence >= 1 {
		return 0, errors.New("stats: invalid margin parameters")
	}
	return ZScore(confidence) * std / math.Sqrt(float64(n)), nil
}

// ZScore returns the two-sided standard normal critical value Z_{α/2} for
// the given confidence level, e.g. ZScore(0.95) ≈ 1.96.
func ZScore(confidence float64) float64 {
	alpha := 1 - confidence
	return normInvCDF(1 - alpha/2)
}

// normInvCDF is the Acklam rational approximation of the standard normal
// quantile function; absolute error < 1.15e-9 over (0,1).
func normInvCDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
