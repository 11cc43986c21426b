package main

import (
	"math"
	"slices"
	"time"
)

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads the steadiness mode prints match the ones an outside script
// computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// secondLowest and secondHighest return the second value of xs from the
// bottom or the top (the only value for one value, 0 for none).
func secondLowest(xs []float64) float64 {
	d := slices.Sorted(slices.Values(xs))
	if len(d) == 0 {
		return 0
	}
	return d[min(1, len(d)-1)]
}

func secondHighest(xs []float64) float64 {
	d := slices.Sorted(slices.Values(xs))
	if len(d) == 0 {
		return 0
	}
	return d[max(len(d)-2, 0)]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ds, or 0 for no samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	d := slices.Clone(ds)
	slices.Sort(d)
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	return d[min(max(rank, 1), len(d))-1]
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// us, ms and secs convert a duration to a float in the named unit.
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
