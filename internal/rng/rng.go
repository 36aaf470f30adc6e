// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the library.
//
// The standard library's math/rand global generator is protected by a mutex,
// which makes it a contention point when many search workers request random
// numbers concurrently (tie-breaking in node selection, Dirichlet root noise,
// synthetic-tree generation). Every component in this repository therefore
// owns a private *rng.Rand seeded explicitly, which also makes experiments
// bit-for-bit reproducible across runs and across machines.
package rng

import (
	"flag"
	"math"
)

// splitMix64 advances a SplitMix64 state and returns the next value.
// SplitMix64 is used both as a seeding mixer and as the stream expander for
// Xoshiro state initialisation, following Blackman & Vigna's recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine its own instance (see Split).
type Rand struct {
	s [4]uint64
	// cached second normal variate for NormFloat64 (Box-Muller produces pairs)
	normCached bool
	normVal    float64
}

// New returns a generator seeded from seed. Any seed value, including zero,
// produces a well-mixed non-degenerate state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	return r
}

// SeedFlag registers the -seed flag (default 1) whose value the binary's
// generators are seeded from; note, if any, is appended to the usage string.
func SeedFlag(fs *flag.FlagSet, note string) *uint64 {
	return fs.Uint64("seed", 1, "run seed"+note)
}

// Split derives a new, statistically independent generator from r.
// It is the supported way to hand child goroutines their own streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo1 := t & mask32
	hi1 := t >> 32
	lo1 += aLo * bHi
	hi = aHi*bHi + hi1 + lo1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate using Box-Muller.
func (r *Rand) NormFloat64() float64 {
	if r.normCached {
		r.normCached = false
		return r.normVal
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	rad := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.normVal = rad * math.Sin(theta)
	r.normCached = true
	return rad * math.Cos(theta)
}

// GammaFloat64 samples from a Gamma(alpha, 1) distribution using the
// Marsaglia-Tsang method (with Johnk-style boosting for alpha < 1).
// It is used to sample Dirichlet exploration noise at the search root.
func (r *Rand) GammaFloat64(alpha float64) float64 {
	if alpha <= 0 {
		panic("rng: GammaFloat64 requires alpha > 0")
	}
	if alpha < 1 {
		// boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.GammaFloat64(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills out with a sample from Dirichlet(alpha, ..., alpha) of
// dimension len(out). AlphaZero adds such noise to root priors to guarantee
// exploration during self-play.
func (r *Rand) Dirichlet(alpha float64, out []float64) {
	var sum float64
	for i := range out {
		g := r.GammaFloat64(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
