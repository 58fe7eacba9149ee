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
// All generators implement the Source interface. None of them are safe for
// concurrent use; parallel workers must each own a Source.
package rng

import "math/bits"

// Source is a stream of uniformly distributed pseudo-random numbers.
//
// Implementations are deterministic functions of their seed and are not
// safe for concurrent use.
type Source interface {
	// Uint64 returns the next 64 uniformly distributed bits.
	Uint64() uint64
}

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
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a Xoshiro256 whose state is filled from seed via
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// An all-zero state would be a fixed point emitting only zeros.
	// SplitMix64 is a bijection over its 2^64 outputs so four consecutive
	// zero outputs cannot happen, but guard anyway: the cost is nothing.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

// Uint64 returns the next value of the stream.
func (x *Xoshiro256) Uint64() uint64 {
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 ^= s0
	s3 ^= s1
	x.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return result
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
