// Package xrand provides small, deterministic pseudo-random number
// generators and distributions for the workload generators and tests.
//
// The simulator's experiments must be reproducible bit-for-bit across
// runs and Go releases, so this package implements its own generators
// (splitmix64 and xoshiro256**) rather than depending on math/rand,
// whose stream for a given seed is not guaranteed across versions.
package xrand

import "math"

// splitmix64 advances a 64-bit state and returns the next output.
// It is used both as a standalone generator for seeding and as the
// state initializer for Rand.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator.
// The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64,
// following the xoshiro authors' recommended seeding procedure.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// A pathological all-zero state would produce only zeros; splitmix64
	// cannot generate four zero outputs in a row, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) ExpFloat64() float64 {
	// Inverse-CDF sampling; Float64 never returns 1.0, so the argument
	// to Log is always positive.
	return -math.Log(1 - r.Float64())
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 { return mean * r.ExpFloat64() }

// NormFloat64 returns a standard normal value (Box-Muller; one value
// per call, the pair's second member is discarded for simplicity and
// determinism of the consumed stream length).
func (r *Rand) NormFloat64() float64 {
	u := 1 - r.Float64() // in (0, 1]
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// LogNormal returns exp(N(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) distributed value (heavy tail).
// It panics if xm <= 0 or alpha <= 0.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("xrand: Pareto requires positive parameters")
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Range returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Split returns a new generator whose stream is independent of r's
// subsequent outputs, for deterministic parallel substreams.
func (r *Rand) Split() *Rand { return New(r.Uint64()) }
