// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// The simulation results in EXPERIMENTS.md must be reproducible bit-for-bit
// from a seed, across Go releases and architectures. The standard library's
// math/rand does not promise a stable stream across Go versions, so this
// package implements its own generators with published reference outputs:
//
//   - SplitMix64: Steele, Lea, Flood (2014). Used for seeding and for
//     deriving independent streams (it is a bijective counter-based
//     generator, so distinct seeds give distinct streams).
//   - Xoshiro256** : Blackman & Vigna (2018). The workhorse generator used
//     by simulation trials.
//
// Rand holds a Xoshiro256 and adds the distributions the simulations
// draw (uniform integers, pairs, floats, binomials, multinomials). None
// of these types are safe for concurrent use; parallel workers must each
// own a generator.
package rng

import "math/bits"

// SplitMix64 is the splitmix64 generator. Its zero value is a valid
// generator seeded with 0.
//
// SplitMix64 walks a 64-bit counter through a strong mixing function, so it
// is primarily useful for expanding a single seed into many independent
// seeds (every seed yields a distinct, well-mixed stream).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value of the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a bijection on uint64
// with good avalanche behaviour, handy for hashing loop indices into seeds.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 is the xoshiro256** 1.0 generator.
//
// It has a 256-bit state, passes BigCrush, and emits one value in a handful
// of ALU operations. The zero value is invalid (all-zero state is a fixed
// point); use NewXoshiro256.
//
// The state is four scalar fields rather than an array: Go can keep a
// local struct of up to four scalars in registers, never a [4]uint64, so
// a loop that holds a Xoshiro256 in a local and draws through Next can
// leave memory alone between draws.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a Xoshiro256 whose state is filled from seed via
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := new(Xoshiro256)
	x.seed(seed)
	return x
}

// seed fills x's state from seed as NewXoshiro256 does, in place, so a
// Rand seeds the generator it holds without allocating another.
func (x *Xoshiro256) seed(seed uint64) {
	sm := NewSplitMix64(seed)
	*x = Xoshiro256{sm.Uint64(), sm.Uint64(), sm.Uint64(), sm.Uint64()}
	// An all-zero state would be a fixed point emitting only zeros.
	// SplitMix64 is a bijection over its 2^64 outputs so four consecutive
	// zero outputs cannot happen, but guard anyway: the cost is nothing.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
}

// Next returns the next value of the stream and the generator advanced
// past it, leaving x as it was.
func (x Xoshiro256) Next() (uint64, Xoshiro256) {
	result := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result, x
}

// Uint64 returns the next value of the stream.
func (x *Xoshiro256) Uint64() uint64 {
	v, next := x.Next()
	*x = next
	return v
}

// StreamSeed deterministically derives a sub-seed for a named stream, e.g.
// StreamSeed(root, pointIndex, trialIndex). It hashes the path elements
// into the seed one at a time with Mix64.
func StreamSeed(root uint64, path ...uint64) uint64 {
	s := Mix64(root)
	for _, p := range path {
		s = Mix64(s ^ Mix64(p+0x632be59bd9b4e019))
	}
	return s
}
