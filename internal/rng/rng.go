// Package rng provides deterministic, splittable random number streams
// for the simulator. Every stochastic component (traffic generators,
// adaptive route selection, PPM sampling, spoofing) draws from its own
// named substream so that adding one component never perturbs the draws
// of another — a prerequisite for reproducible experiments and
// regression-stable golden outputs.
//
// The generator is xoshiro256**, seeded through splitmix64, both
// implemented here because the experiments must not depend on the exact
// sequence of math/rand across Go releases.
package rng

import "math"

// splitmix64 advances the seed and returns the next 64-bit output.
// It is used only to expand seeds into xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** generator. It is NOT safe for concurrent
// use; give each goroutine (or each simulated component) its own Stream
// via Source.Stream.
type Stream struct {
	s [4]uint64
}

// NewStream seeds a stream directly from a 64-bit seed.
func NewStream(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit output.
func (r *Stream) Uint64() uint64 {
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

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method for unbiased bounded
// generation without division in the common case.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aL, aH := a&mask, a>>32
	bL, bH := b&mask, b>>32
	t := aL * bL
	lo = t & mask
	c := t >> 32
	t = aH*bL + c
	mid := t & mask
	hiPart := t >> 32
	t = aL*bH + mid
	lo |= (t & mask) << 32
	hi = aH*bH + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Stream) Bool() bool { return r.Uint64()&1 == 1 }

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). Used for Poisson arrival processes.
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Source derives independent named streams from a root seed. Stream
// derivation hashes the name with FNV-1a, so the same (seed, name) pair
// always yields the same stream regardless of derivation order.
type Source struct {
	seed uint64
}

// NewSource creates a stream factory rooted at seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Stream derives the substream for name.
func (s *Source) Stream(name string) *Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return NewStream(s.seed ^ h)
}
