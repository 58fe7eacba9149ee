// Package sched provides interaction schedulers: the adversary that decides
// which pair of agents meets next (Section 2.1 of the paper).
//
// The paper's correctness result assumes global fairness — if a
// configuration C occurs infinitely often, every configuration reachable
// from C in one step also occurs infinitely often. Global fairness is a
// property of infinite executions and cannot be mechanized directly; this
// package therefore provides:
//
//   - Random: the uniform-random scheduler used in the paper's Section 5,
//     whose infinite executions are globally fair with probability 1;
//   - Sweep: a deterministic cyclic scheduler that enumerates all pairs
//     (weakly fair — every pair fires infinitely often — but NOT globally
//     fair in general);
//   - Hostile: an adversarial scheduler that exploits the initial/initial'
//     oscillation of Figure 1 to starve the protocol forever, demonstrating
//     that the fairness assumption is necessary;
//   - WeakAdversary (weak.go): a scheduler that is PROVABLY weakly fair —
//     a cyclic obligation visits every pair infinitely often — yet steers
//     the protocol into the same handshake oscillation, separating weak
//     from global fairness without ever starving a pair.
//
// Exhaustive verification of the fairness-dependent liveness lives in
// internal/explore instead, where reachability over the whole configuration
// graph replaces the infinite-schedule quantifier.
package sched

import (
	"repro/internal/protocol"
	"repro/internal/rng"
)

// View is the read-only access a scheduler gets to the population. The
// *population.Population type satisfies it.
type View interface {
	// N returns the number of agents.
	N() int
	// State returns agent i's current state.
	State(i int) protocol.State
}

// Scheduler picks the next interacting pair. Implementations are stateful
// and not safe for concurrent use; each trial owns its scheduler.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Next returns the next (initiator, responder) pair, two distinct
	// agent indices in [0, v.N()).
	Next(v View) (int, int)
}

// Func adapts a function to the Scheduler interface; used to plug in
// protocol-aware strategies (e.g. core.Director) that live in packages
// which cannot import sched without creating a cycle in their tests.
type Func struct {
	// SchedName is returned by Name.
	SchedName string
	// F picks the next pair.
	F func(v View) (int, int)
}

// Name implements Scheduler.
func (f Func) Name() string { return f.SchedName }

// Next implements Scheduler.
func (f Func) Next(v View) (int, int) { return f.F(v) }

// Random selects unordered pairs uniformly at random, the interaction model
// of the paper's simulations ("selecting two agents uniformly at random in
// each configuration").
type Random struct {
	r *rng.Rand
}

// NewRandom returns a Random scheduler with its own generator seeded by
// seed.
func NewRandom(seed uint64) *Random {
	return &Random{r: rng.New(seed)}
}

// NewRandomFrom returns a Random scheduler drawing from r.
func NewRandomFrom(r *rng.Rand) *Random { return &Random{r: r} }

// Name implements Scheduler.
func (s *Random) Name() string { return "random" }

// RNG exposes the scheduler's generator, so the agent engine's fused
// loop can draw pairs from it directly.
func (s *Random) RNG() *rng.Rand { return s.r }

// Next implements Scheduler.
func (s *Random) Next(v View) (int, int) {
	return s.r.Pair(v.N())
}

// Sweep cycles deterministically through all ordered pairs (i, j), i != j,
// in lexicographic order. Every pair occurs infinitely often (weak
// fairness), but the schedule is oblivious to the configuration, so it does
// not guarantee global fairness; it exists to let tests and ablations
// compare scheduler assumptions.
type Sweep struct {
	i, j int
}

// NewSweep returns a Sweep scheduler starting at pair (0, 1).
func NewSweep() *Sweep { return &Sweep{i: 0, j: 1} }

// Name implements Scheduler.
func (s *Sweep) Name() string { return "sweep" }

// Next implements Scheduler.
func (s *Sweep) Next(v View) (int, int) {
	n := v.N()
	if s.i >= n || s.j >= n { // population smaller than cursor; restart
		s.i, s.j = 0, 1
	}
	i, j := s.i, s.j
	// Advance to the next ordered pair with i != j.
	s.j++
	if s.j == s.i {
		s.j++
	}
	if s.j >= n {
		s.j = 0
		s.i++
		if s.i >= n {
			s.i = 0
			s.j = 1
		}
	}
	return i, j
}

// Hostile is an unfair adversary for protocols with the initial/initial'
// handshake (the paper's Figure 1 scenario): whenever it can find two free
// agents whose I-states are equal, it schedules them, forcing rules 1/2 to
// oscillate the whole free set between initial and initial' without ever
// letting rule 5 fire. If no such pair exists it falls back to a random
// pair. Against the k-partition protocol from the all-initial configuration
// it prevents stabilization forever.
type Hostile struct {
	r    *rng.Rand
	free func(protocol.State) bool
	scan []int
}

// NewHostile returns a Hostile scheduler. isFree classifies the target
// protocol's I-states (for the k-partition protocol, states 0 and 1).
func NewHostile(seed uint64, isFree func(protocol.State) bool) *Hostile {
	return &Hostile{r: rng.New(seed), free: isFree}
}

// Name implements Scheduler.
func (s *Hostile) Name() string { return "hostile" }

// Next implements Scheduler.
func (s *Hostile) Next(v View) (int, int) {
	n := v.N()
	// Find two free agents in the same I-state. With the all-initial start
	// the free set always has uniform parity under this scheduler, so the
	// first two free agents found match.
	s.scan = s.scan[:0]
	var first = -1
	for i := 0; i < n; i++ {
		st := v.State(i)
		if !s.free(st) {
			continue
		}
		if first == -1 {
			first = i
			continue
		}
		if v.State(first) == st {
			return first, i
		}
		s.scan = append(s.scan, i)
	}
	// No same-state free pair; any two equal among the rest?
	for _, i := range s.scan {
		for _, j := range s.scan {
			if i != j && v.State(i) == v.State(j) {
				return i, j
			}
		}
	}
	return s.r.Pair(n)
}
