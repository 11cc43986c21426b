package stats

import (
	"math"
	"math/rand"
)

// Rand wraps a seeded PRNG with the samplers the trace generator and the
// RTB market model need: log-normal charge prices, Zipf-distributed
// publisher popularity, and weighted categorical choices. All simulation
// randomness flows through here so every experiment is reproducible from a
// single seed.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (g *Rand) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *Rand) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *Rand) Int63() int64 { return g.r.Int63() }

// Normal samples N(mu, sigma).
func (g *Rand) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// LogNormal samples a log-normal variate whose underlying normal has mean
// mu and stddev sigma. RTB charge prices are heavy-tailed; the paper's
// per-feature price distributions span 0.01–100 CPM on log axes, which a
// log-normal family reproduces.
func (g *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// LogNormalMeanStd samples a log-normal variate with the given *arithmetic*
// mean m and standard deviation s (both > 0), converting to the underlying
// normal parameters. Handy when calibrating to the paper's reported
// campaign moments (m = 1.84 CPM, sd = 2.15 CPM for MoPub campaigns).
func (g *Rand) LogNormalMeanStd(m, s float64) float64 {
	if m <= 0 {
		return 0
	}
	v := s * s / (m * m)
	sigma2 := math.Log(1 + v)
	mu := math.Log(m) - sigma2/2
	return g.LogNormal(mu, math.Sqrt(sigma2))
}

// Exp samples an exponential variate with the given mean.
func (g *Rand) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Poisson samples a Poisson variate with the given mean using Knuth's
// method for small lambda and a normal approximation above 30.
func (g *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(g.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		k++
		p *= g.r.Float64()
		if p <= l {
			return k - 1
		}
	}
}

// Bernoulli returns true with probability p.
func (g *Rand) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Zipf returns a sampler over [0, n) with exponent s > 1; rank 0 is the
// most popular. Publisher and app popularity in real weblogs is Zipfian,
// which the trace generator relies on so a handful of top publishers (the
// paper's MoPub/Adnxs skew, Fig 3) dominate.
func (g *Rand) Zipf(s float64, n int) *Zipf {
	z := NewZipf(s, n)
	z.r = g
	return z
}

// NewZipf builds the cumulative table of a Zipfian distribution over
// [0, n) with exponent s > 1, unbound to any random stream. The table is
// read-only after construction, so one NewZipf may be shared by any
// number of concurrent samplers via Sample — the per-user substream
// generators all draw from the same popularity table.
func NewZipf(s float64, n int) *Zipf {
	if n <= 0 {
		n = 1
	}
	if s <= 1 {
		s = 1.01
	}
	z := &Zipf{cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

// Zipf samples ranks from a Zipfian popularity distribution.
type Zipf struct {
	cum []float64
	r   *Rand
}

// Next returns the next rank in [0, n), drawing from the stream the
// sampler was built over. Panics on a NewZipf sampler (no bound stream);
// use Sample there.
func (z *Zipf) Next() int { return z.Sample(z.r) }

// Sample returns the next rank in [0, n), drawing from r. The cumulative
// table is never written, so concurrent Sample calls with distinct
// streams are safe.
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice picks index i with probability weights[i]/Σweights.
// Negative weights are treated as zero. If all weights are zero the choice
// is uniform.
func (g *Rand) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		return -1
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.Intn(len(weights))
	}
	u := g.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n indices, calling swap like sort.Interface.
func (g *Rand) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Perm returns a random permutation of [0, n).
func (g *Rand) Perm(n int) []int { return g.r.Perm(n) }

// PermInto writes the permutation Perm(n) would return into buf[:n]
// (reallocating only when buf is too short) and returns it, drawing
// exactly what Perm draws. This is math/rand's Perm loop, which Go 1
// compatibility keeps fixed — it even keeps the i=0 draw that always
// swaps m[0] with itself, because dropping it would change the
// generator's state.
func (g *Rand) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := range n {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
