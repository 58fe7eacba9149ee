package core

import (
	"fmt"

	"repro/internal/protocol"
)

// This file implements the analytical backbone of the paper's correctness
// proof as executable checks: the Lemma 1 conservation invariant and the
// stable-configuration signature of Lemmas 4–6. The simulation engine and
// the model checker both consume these, and the property-based tests fuzz
// them along random executions.

// CheckInvariant verifies the Lemma 1 identity on a state-count vector:
//
//	#gx = Σ_{p=x+1}^{k−1} #mp + Σ_{q=x}^{k−2} #dq + #gk   for all 1 <= x <= k.
//
// counts must be indexed by dense state (len 3k−2). It returns a non-nil
// error naming the first violated x. The invariant holds at every
// configuration reachable from the all-initial configuration; a violation
// means either a corrupted configuration or a bug in the transition table.
func (p *Protocol) CheckInvariant(counts []int) error {
	if len(counts) != p.NumStates() {
		return fmt.Errorf("core: counts has %d entries, protocol has %d states", len(counts), p.NumStates())
	}
	// The dense layout of New, indexed directly: g_x = 1+x, m_x = k+x and
	// d_x = 2k−1+x. The batch engine runs this after every fallback step.
	k := p.k
	gk := counts[1+k]
	// Suffix sums over M and D, accumulated while x descends from k to 1.
	mSuffix := 0 // Σ_{p=x+1}^{k-1} #mp
	dSuffix := 0 // Σ_{q=x}^{k-2} #dq
	for x := k; x >= 1; x-- {
		if x+1 <= k-1 {
			mSuffix += counts[k+x+1]
		}
		if x <= k-2 {
			dSuffix += counts[2*k-1+x]
		}
		want := mSuffix + dSuffix + gk
		if got := counts[1+x]; got != want {
			return fmt.Errorf("core: Lemma 1 violated at x=%d: #g%d=%d, want %d (mSuffix=%d dSuffix=%d #gk=%d)",
				x, x, got, want, mSuffix, dSuffix, gk)
		}
	}
	return nil
}

// CanonMap returns the canonicalization used for stability detection: a
// slice mapping each dense state to a canonical slot, where initial and
// initial' share slot 0 (the definition of "free agent count" #ini in
// Section 4) and every other state keeps its own slot (shifted by one).
// Slot count is NumStates()−1.
func (p *Protocol) CanonMap() []int {
	m := make([]int, p.NumStates())
	m[p.Initial()] = 0
	m[p.InitialBar()] = 0
	for s := 2; s < p.NumStates(); s++ {
		m[s] = s - 1
	}
	return m
}

// TargetCounts returns the canonical state-count signature of the unique
// stable configuration for n agents (Lemmas 4–6), indexed by the slots of
// CanonMap. With q = ⌊n/k⌋ and r = n − k·q:
//
//	r = 0:  #gx = q for all x.
//	r = 1:  #gx = q for all x, and one free agent (slot 0).
//	r >= 2: #gx = q+1 for x <= r−1, #gx = q for x >= r, and #m_r = 1.
//
// The same formulas cover n < k (then q = 0, r = n). It returns
// CheckPopulation's error for n < 3.
func (p *Protocol) TargetCounts(n int) ([]int, error) {
	if err := CheckPopulation(n); err != nil {
		return nil, err
	}
	k := p.k
	q, r := n/k, n%k
	canon := p.CanonMap()
	target := make([]int, p.NumStates()-1)
	for x := 1; x <= k; x++ {
		c := q
		if x <= r-1 {
			c = q + 1
		}
		target[canon[p.G(x)]] = c
	}
	switch {
	case r == 1:
		target[0] = 1
	case r >= 2:
		target[canon[p.M(r)]] = 1
	}
	return target, nil
}

// CheckPopulation returns an error for a population of n < 3 agents,
// where the symmetric protocol cannot stabilize (Section 2.1), whatever
// k. It needs no protocol table, so admission can reject such a
// population before building one.
func CheckPopulation(n int) error {
	if n < 3 {
		return fmt.Errorf("core: uniform k-partition undefined for n=%d < 3", n)
	}
	return nil
}

// IsStable reports whether the raw state-count vector is the stable
// signature for its population size.
func (p *Protocol) IsStable(counts []int) bool {
	n := 0
	for _, c := range counts {
		n += c
	}
	target, err := p.TargetCounts(n)
	if err != nil {
		return false
	}
	canon := p.CanonMap()
	got := make([]int, len(target))
	for s, c := range counts {
		got[canon[s]] += c
	}
	for i := range got {
		if got[i] != target[i] {
			return false
		}
	}
	return true
}

// StableChecker returns an allocation-free predicate equivalent to
// IsStable for a FIXED population size n: the target signature is computed
// once, and each call compares the free count #initial + #initial' (slot 0
// of CanonMap) and then every other state against it, returning at the
// first mismatch. Use it on hot paths (the count engine's
// per-productive-step stop predicate).
func (p *Protocol) StableChecker(n int) (func(counts []int) bool, error) {
	target, err := p.TargetCounts(n)
	if err != nil {
		return nil, err
	}
	free, rest := target[0], target[1:]
	return func(counts []int) bool {
		if counts[0]+counts[1] != free {
			return false
		}
		for i, want := range rest {
			if counts[i+2] != want {
				return false
			}
		}
		return true
	}, nil
}

// GroupSizesFromCounts computes the size of each group 1..k from a raw
// count vector without needing a Population.
func (p *Protocol) GroupSizesFromCounts(counts []int) []int {
	sizes := make([]int, p.k)
	for s, c := range counts {
		if c != 0 {
			sizes[p.Group(protocol.State(s))-1] += c
		}
	}
	return sizes
}

// StableGroupSizes returns the group sizes the stable configuration yields
// for n agents: n mod k groups of ⌈n/k⌉ and the rest of ⌊n/k⌋.
func (p *Protocol) StableGroupSizes(n int) []int {
	q, r := n/p.k, n%p.k
	sizes := make([]int, p.k)
	for i := range sizes {
		sizes[i] = q
		if i < r {
			sizes[i]++
		}
	}
	return sizes
}
