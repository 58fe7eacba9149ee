// Package core implements the paper's primary contribution: the symmetric
// uniform k-partition population protocol with designated initial states
// under global fairness (Algorithm 1 of Yasumi, Kitamura, Ooshita, Izumi,
// Inoue; IJNC 9(1), 2019).
//
// The protocol uses 3k−2 states,
//
//	Q = I ∪ G ∪ M ∪ D
//	I = {initial, initial'}          (the "free" states; f = 1)
//	G = {g1 .. gk}                   (membership states; f(gi) = i)
//	M = {m2 .. m(k−1)}               (chain heads; f(mi) = i)
//	D = {d1 .. d(k−2)}               (demolition states; f(di) = 1)
//
// and the ten transition families of Algorithm 1. The basic strategy
// (rules 1–7) grows one complete set {g1..gk} at a time: two free agents
// rendezvous through the initial/initial' handshake and become (g1, m2);
// the m-head then converts free agents to g2, g3, … while climbing to
// m(k−1); the final conversion yields (g(k−1), gk). Rules 8–10 resolve the
// overproduction problem: two m-heads that meet demote to d-states, and a
// d-state unwinds exactly the g-agents its former m-chain created, one
// level per interaction, returning everyone involved to initial.
//
// For k = 2, M and D are empty and the protocol degenerates to the
// four-state uniform bipartition protocol of Yasumi et al. (OPODIS 2017),
// exactly as Section 4 of the paper notes.
package core

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
)

// Kind classifies a state into the four subsets of Q.
type Kind uint8

// The four state subsets of Algorithm 1.
const (
	KindInitial    Kind = iota // initial
	KindInitialBar             // initial'
	KindG                      // g1..gk
	KindM                      // m2..m(k-1)
	KindD                      // d1..d(k-2)
)

// String returns the subset's name.
func (k Kind) String() string {
	switch k {
	case KindInitial:
		return "initial"
	case KindInitialBar:
		return "initial'"
	case KindG:
		return "G"
	case KindM:
		return "M"
	case KindD:
		return "D"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrBadK is returned for k < 2; the problem is defined for k >= 2.
var ErrBadK = errors.New("core: uniform k-partition requires k >= 2")

// Protocol is the uniform k-partition protocol for a fixed k. It embeds
// the compiled transition table (so it satisfies protocol.Protocol) and
// adds the state codec, the Lemma 1 invariant, and the stable-configuration
// signature of Lemmas 4–6. Immutable after New; safe for concurrent readers.
type Protocol struct {
	*protocol.Table
	k int
}

// New constructs the protocol for k groups. The returned protocol has
// exactly 3k−2 states and only symmetric rules.
func New(k int) (*Protocol, error) {
	if k < 2 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	p := &Protocol{k: k}
	b := protocol.NewBuilder(fmt.Sprintf("uniform-%d-partition", k), true)

	// State layout (dense indices):
	//   0            initial
	//   1            initial'
	//   2 .. k+1     g1 .. gk
	//   k+2 .. 2k-1  m2 .. m(k-1)   (k >= 3 only)
	//   2k .. 3k-3   d1 .. d(k-2)   (k >= 3 only)
	ini := b.AddState("initial", 1)
	iniBar := b.AddState("initial'", 1)
	for i := 1; i <= k; i++ {
		b.AddState(fmt.Sprintf("g%d", i), i)
	}
	for i := 2; i <= k-1; i++ {
		b.AddState(fmt.Sprintf("m%d", i), i)
	}
	for i := 1; i <= k-2; i++ {
		b.AddState(fmt.Sprintf("d%d", i), 1)
	}
	b.SetInitial(ini)

	free := []protocol.State{ini, iniBar}
	bar := func(s protocol.State) protocol.State {
		if s == ini {
			return iniBar
		}
		return ini
	}

	// Rule 1: (initial, initial) -> (initial', initial')
	b.AddRule(ini, ini, iniBar, iniBar)
	// Rule 2: (initial', initial') -> (initial, initial)
	b.AddRule(iniBar, iniBar, ini, ini)
	// Rule 3: (di, ini) -> (di, bar(ini))
	for i := 1; i <= k-2; i++ {
		for _, f := range free {
			b.AddRule(p.D(i), f, p.D(i), bar(f))
		}
	}
	// Rule 4: (gi, ini) -> (gi, bar(ini))
	for i := 1; i <= k; i++ {
		for _, f := range free {
			b.AddRule(p.G(i), f, p.G(i), bar(f))
		}
	}
	// Rule 5: (initial, initial') -> (g1, m2); for k = 2 the m-chain is
	// empty and the pair completes immediately as (g1, g2).
	if k >= 3 {
		b.AddRule(ini, iniBar, p.G(1), p.M(2))
	} else {
		b.AddRule(ini, iniBar, p.G(1), p.G(2))
	}
	// Rule 6: (ini, mi) -> (gi, m(i+1)), 2 <= i <= k-2.
	for i := 2; i <= k-2; i++ {
		for _, f := range free {
			b.AddRule(f, p.M(i), p.G(i), p.M(i+1))
		}
	}
	// Rule 7: (ini, m(k-1)) -> (g(k-1), gk).
	if k >= 3 {
		for _, f := range free {
			b.AddRule(f, p.M(k-1), p.G(k-1), p.G(k))
		}
	}
	// Rule 8: (mi, mj) -> (d(i-1), d(j-1)), 2 <= i, j <= k-1.
	for i := 2; i <= k-1; i++ {
		for j := 2; j <= k-1; j++ {
			b.AddRule(p.M(i), p.M(j), p.D(i-1), p.D(j-1))
		}
	}
	// Rule 9: (di, gi) -> (d(i-1), initial), 2 <= i <= k-2.
	for i := 2; i <= k-2; i++ {
		b.AddRule(p.D(i), p.G(i), p.D(i-1), ini)
	}
	// Rule 10: (d1, g1) -> (initial, initial).
	if k >= 3 {
		b.AddRule(p.D(1), p.G(1), ini, ini)
	}

	tab, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building k=%d table: %w", k, err)
	}
	p.Table = tab
	return p, nil
}

// MustNew is New that panics on error, for k known to be valid.
func MustNew(k int) *Protocol {
	p, err := New(k)
	if err != nil {
		panic(err)
	}
	return p
}

// K returns the number of groups.
func (p *Protocol) K() int { return p.k }

// Initial returns the state index of "initial".
func (p *Protocol) Initial() protocol.State { return 0 }

// InitialBar returns the state index of "initial'".
func (p *Protocol) InitialBar() protocol.State { return 1 }

// G returns the state index of g_i, 1 <= i <= k.
func (p *Protocol) G(i int) protocol.State {
	if i < 1 || i > p.k {
		p.outOfRange("g", i)
	}
	return protocol.State(2 + i - 1)
}

// M returns the state index of m_i, 2 <= i <= k-1.
func (p *Protocol) M(i int) protocol.State {
	if i < 2 || i >= p.k {
		p.outOfRange("m", i)
	}
	return protocol.State(p.k + i)
}

// D returns the state index of d_i, 1 <= i <= k-2.
func (p *Protocol) D(i int) protocol.State {
	if i < 1 || i > p.k-2 {
		p.outOfRange("d", i)
	}
	return protocol.State(2*p.k + i - 1)
}

// outOfRange panics on a state-family index outside its range. It is kept
// out of G, M and D so that they stay cheap enough to inline.
//
//go:noinline
func (p *Protocol) outOfRange(family string, i int) {
	panic(fmt.Sprintf("core: %s%d out of range for k=%d", family, i, p.k))
}

// Decode classifies state s and returns its within-subset index: 0 for the
// I states, i for g_i / m_i / d_i.
func (p *Protocol) Decode(s protocol.State) (Kind, int) {
	switch {
	case s == 0:
		return KindInitial, 0
	case s == 1:
		return KindInitialBar, 0
	case int(s) <= p.k+1:
		return KindG, int(s) - 1
	case int(s) <= 2*p.k-1:
		return KindM, int(s) - p.k
	default:
		return KindD, int(s) - 2*p.k + 1
	}
}

// IsFree reports whether s is in I = {initial, initial'}.
func (p *Protocol) IsFree(s protocol.State) bool { return s <= 1 }

// ParityOrbit returns the set of states an agent in state s can move
// through without changing group while the rest of the configuration is
// fixed: both I-states for a free agent (rules 1–4 flip parity, f = 1 for
// both), the singleton otherwise. This is the orbit function the
// graph-restricted frozenness check (internal/topology) needs for
// soundness: every group-preserving transition of Algorithm 1 is a parity
// flip.
func (p *Protocol) ParityOrbit(s protocol.State) []protocol.State {
	if p.IsFree(s) {
		return []protocol.State{p.Initial(), p.InitialBar()}
	}
	return []protocol.State{s}
}
