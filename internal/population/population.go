// Package population represents a population of anonymous agents and its
// configuration (the vector of all agent states, Section 2.1 of the paper).
//
// A Population keeps two synchronized views of the configuration:
//
//   - the agent vector states[i], needed because the scheduler picks *agents*
//     (the identity matters for pair selection even though agents are
//     anonymous to the protocol), and
//   - the state-count vector counts[s], needed for O(1) stability checks,
//     invariant checks, and group-size queries.
//
// Applying one interaction updates both in O(1).
package population

import (
	"fmt"
	"math/bits"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// Population is a mutable configuration of n agents running protocol p.
// It is not safe for concurrent use; parallel trials each own a Population.
type Population struct {
	proto  protocol.Protocol
	states []protocol.State
	counts []int
	// interactions counts every scheduled encounter, including null ones,
	// matching the paper's evaluation metric.
	interactions uint64
	// productive counts encounters where at least one agent changed state.
	productive uint64
}

// New creates a population of n agents, each in the protocol's designated
// initial state. It panics if n < 2 (no pair can interact).
func New(p protocol.Protocol, n int) *Population {
	if n < 2 {
		panic(fmt.Sprintf("population: need n >= 2 agents, got %d", n))
	}
	pop := &Population{
		proto:  p,
		states: make([]protocol.State, n),
		counts: make([]int, p.NumStates()),
	}
	s0 := p.InitialState()
	for i := range pop.states {
		pop.states[i] = s0
	}
	pop.counts[s0] = n
	return pop
}

// FromStates creates a population with an explicit configuration; used by
// the model checker and by tests that start mid-execution.
func FromStates(p protocol.Protocol, states []protocol.State) *Population {
	if len(states) < 2 {
		panic("population: need at least 2 agents")
	}
	pop := &Population{
		proto:  p,
		states: append([]protocol.State(nil), states...),
		counts: make([]int, p.NumStates()),
	}
	for _, s := range states {
		if int(s) >= p.NumStates() {
			panic(fmt.Sprintf("population: state %d outside protocol's %d states", s, p.NumStates()))
		}
		pop.counts[s]++
	}
	return pop
}

// N returns the number of agents.
func (pop *Population) N() int { return len(pop.states) }

// Protocol returns the protocol this population runs.
func (pop *Population) Protocol() protocol.Protocol { return pop.proto }

// State returns agent i's current state.
func (pop *Population) State(i int) protocol.State { return pop.states[i] }

// Count returns the number of agents currently in state s.
func (pop *Population) Count(s protocol.State) int { return pop.counts[s] }

// Counts returns a copy of the state-count vector.
func (pop *Population) Counts() []int {
	return append([]int(nil), pop.counts...)
}

// CountsView returns the live state-count vector. Callers must not modify
// it; it is exposed without copying for per-step hooks on hot paths.
func (pop *Population) CountsView() []int { return pop.counts }

// Interactions returns the number of encounters applied so far (null
// encounters included), the paper's time metric.
func (pop *Population) Interactions() uint64 { return pop.interactions }

// Productive returns the number of encounters that changed some state.
func (pop *Population) Productive() uint64 { return pop.productive }

// Interact applies one encounter between initiator i and responder j,
// returning whether any state changed. It panics if i == j.
func (pop *Population) Interact(i, j int) bool {
	if i == j {
		panic("population: agent cannot interact with itself")
	}
	pop.interactions++
	p, q := pop.states[i], pop.states[j]
	out, _ := pop.proto.Delta(p, q)
	if out.P == p && out.Q == q {
		return false
	}
	pop.apply(i, j, p, q, out)
	return true
}

// InteractUniform applies encounters between pairs drawn uniformly at
// random from x until the interaction counter reaches until or
// productive returns true, and reports whether productive did. Each
// pair is drawn exactly as rng.Rand.Pair draws it from a Rand over x,
// and δ is read from delta, the protocol's transition table (see
// protocol.Table.TransitionsView). A null encounter only advances the
// interaction counter. A productive one is applied as Interact applies
// it, and then, with both counters current, productive is called with
// the agents and their states before and after the encounter. The
// counters are current again whenever InteractUniform returns.
//
// This is the agent engine's loop under the paper's uniform random
// scheduler, where almost every encounter is null. The null encounters
// run in nullRun, which calls nothing, so that Go keeps its generator, a
// local Xoshiro256, in registers; InteractUniform stores the generator
// back to x only before productive and on return, and reloads it after
// productive, which may draw from x.
func (pop *Population) InteractUniform(x *rng.Xoshiro256, delta []protocol.Pair, until uint64,
	productive func(i, j int, before, after protocol.Pair) bool) bool {
	S := len(pop.counts)
	if len(delta) != S*S {
		panic(fmt.Sprintf("population: transition table has %d entries, want %d", len(delta), S*S))
	}
	states := pop.states
	t := pop.interactions
	g := *x
	for t < until {
		var i, j int
		var found bool
		var left uint64
		g, left, i, j, found = nullRun(g, states, delta, S, until-t)
		t = until - left
		if !found {
			break
		}
		p, q := states[i], states[j]
		out := delta[int(p)*S+int(q)]
		pop.interactions = t
		pop.apply(i, j, p, q, out)
		*x = g
		if productive(i, j, protocol.Pair{P: p, Q: q}, out) {
			return true
		}
		g = *x
	}
	*x = g
	pop.interactions = t
	return false
}

// nullRun draws up to left encounters among the agents of states from g,
// each pair as rng.Rand.Pair draws it, and stops after the first whose
// transition in delta (a table over S states) is not the identity. It
// returns g advanced past its draws, the encounters left undrawn, and
// the productive pair, found, if it met one.
//
// A null encounter costs two generator steps, two multiplies, two state
// reads and one table read. Each draw takes Lemire's method inline: the
// high word of v·n is the value unless the low word falls below 2⁶⁴ mod
// n, which only a draw whose low word is below n (n/2⁶⁴ of them) needs
// to check, and the rejection loop redraws in place. nullRun calls
// nothing and counts down, so the generator stays in registers: a call
// anywhere in the loop made Go's register allocator spill the state
// words around it.
func nullRun(g rng.Xoshiro256, states []protocol.State, delta []protocol.Pair, S int, left uint64) (_ rng.Xoshiro256, _ uint64, i, j int, found bool) {
	n := uint64(len(states))
	n1 := n - 1
	for left > 0 {
		left--
		var v uint64
		v, g = g.Next()
		hi, lo := bits.Mul64(v, n)
		for lo < n && lo < -n%n {
			v, g = g.Next()
			hi, lo = bits.Mul64(v, n)
		}
		v, g = g.Next()
		hj, lo := bits.Mul64(v, n1)
		for lo < n1 && lo < -n1%n1 {
			v, g = g.Next()
			hj, lo = bits.Mul64(v, n1)
		}
		i, j = int(hi), int(hj)
		// Skip the initiator: j moves up one when j >= i. (j-i)>>63 is -1
		// exactly when j < i, so this adds 1 or 0 without a branch. A
		// branch would go either way at random, and the CPU would
		// mispredict it on about every other encounter, null ones too.
		j += 1 + (j-i)>>63
		p, q := states[i], states[j]
		if out := delta[int(p)*S+int(q)]; out.P != p || out.Q != q {
			return g, left, i, j, true
		}
	}
	return g, 0, 0, 0, false
}

// apply moves agents i and j from states p and q to out, keeping the
// count vector in step, and counts the encounter as productive.
func (pop *Population) apply(i, j int, p, q protocol.State, out protocol.Pair) {
	pop.productive++
	if out.P != p {
		pop.counts[p]--
		pop.counts[out.P]++
		pop.states[i] = out.P
	}
	if out.Q != q {
		pop.counts[q]--
		pop.counts[out.Q]++
		pop.states[j] = out.Q
	}
}

// GroupSizes returns the size of each group 1..k at the current
// configuration, indexed 0..k-1.
func (pop *Population) GroupSizes() []int {
	sizes := make([]int, pop.proto.NumGroups())
	for s, c := range pop.counts {
		if c == 0 {
			continue
		}
		sizes[pop.proto.Group(protocol.State(s))-1] += c
	}
	return sizes
}

// Spread returns max group size minus min group size at the current
// configuration; a uniform partition has Spread <= 1.
func (pop *Population) Spread() int {
	sizes := pop.GroupSizes()
	min, max := sizes[0], sizes[0]
	for _, v := range sizes[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// Snapshot returns a copy of the agent state vector.
func (pop *Population) Snapshot() []protocol.State {
	return append([]protocol.State(nil), pop.states...)
}

// Clone returns a deep copy, preserving interaction counters.
func (pop *Population) Clone() *Population {
	return &Population{
		proto:        pop.proto,
		states:       append([]protocol.State(nil), pop.states...),
		counts:       append([]int(nil), pop.counts...),
		interactions: pop.interactions,
		productive:   pop.productive,
	}
}

// SetCounters overwrites the interaction counters; the churn scenario
// uses it to carry a run's history into the population that replaces it.
func (pop *Population) SetCounters(interactions, productive uint64) {
	pop.interactions = interactions
	pop.productive = productive
}

// Reset returns every agent to the designated initial state and zeroes the
// counters, allowing a Population to be reused across benchmark iterations
// without reallocating.
func (pop *Population) Reset() {
	s0 := pop.proto.InitialState()
	for i := range pop.states {
		pop.states[i] = s0
	}
	for i := range pop.counts {
		pop.counts[i] = 0
	}
	pop.counts[s0] = len(pop.states)
	pop.interactions = 0
	pop.productive = 0
}

// String renders the configuration as a count multiset, e.g.
// "{initial:3 g1:2 m2:1}".
func (pop *Population) String() string {
	out := "{"
	first := true
	for s, c := range pop.counts {
		if c == 0 {
			continue
		}
		if !first {
			out += " "
		}
		first = false
		out += fmt.Sprintf("%s:%d", pop.proto.StateName(protocol.State(s)), c)
	}
	return out + "}"
}
