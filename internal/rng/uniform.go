package rng

import "math/bits"

// This file provides small distribution helpers on top of the
// xoshiro256** generator. They are methods of Rand, which callers hold
// by pointer.

// Rand is a Xoshiro256 with the distribution helpers simulations need.
// The zero value is invalid; use New.
type Rand struct {
	x Xoshiro256
}

// New returns a Rand drawing from a fresh Xoshiro256 seeded with seed.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.x.seed(seed)
	return r
}

// Uint64 returns the next raw 64 bits.
func (r *Rand) Uint64() uint64 { return r.x.Uint64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// It uses Lemire's multiply-shift rejection method, which avoids the modulo
// bias of naive `Uint64() % n` and is branch-free in the common case.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return lemire(&r.x, r.x.Uint64(), n)
}

// Xoshiro returns the generator r draws from. Draws through it and
// through r are one stream.
func (r *Rand) Xoshiro() *Xoshiro256 { return &r.x }

// lemire maps v, the next draw from x, onto a uniform value in [0, n)
// for n > 0 by Lemire's multiply-shift method (Lemire 2019, "Fast Random
// Integer Generation in an Interval"). The high word of v*n is uniform
// in [0, n) except for a small biased region of the low word, which is
// rejected and redrawn from x, so the redraws continue x's stream.
//
// lemire inlines: a draw through (*Xoshiro256).Uint64 gets the common
// case, one multiply and one compare, without a call.
func lemire(x *Xoshiro256, v, n uint64) uint64 {
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		return lemireRedraw(x, v, n)
	}
	return hi
}

// lemireRedraw is Lemire's rejection loop, kept out of line so that
// lemire stays within the inlining budget.
//
//go:noinline
func lemireRedraw(x *Xoshiro256, v, n uint64) uint64 {
	thresh := -n % n // == (2^64 - n) mod n
	hi, lo := bits.Mul64(v, n)
	for lo < thresh {
		hi, lo = bits.Mul64(x.Uint64(), n)
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Pair returns two distinct uniform indices in [0, n). It panics if n < 2.
// The pair is unordered-uniform: every unordered pair {i, j} has equal
// probability, matching the interaction model of Section 5 of the paper
// ("selecting two agents uniformly at random").
func (r *Rand) Pair(n int) (int, int) {
	if n < 2 {
		panic("rng: Pair needs n >= 2")
	}
	i := r.Intn(n)
	j := r.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// Perm fills p with a uniform permutation of 0..len(p)-1 (Fisher–Yates).
func (r *Rand) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes s in place uniformly at random.
func (r *Rand) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
