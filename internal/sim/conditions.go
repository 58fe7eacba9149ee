package sim

import (
	"fmt"

	"repro/internal/population"
	"repro/internal/protocol"
)

// This file implements the standard stop conditions.
//
// CountTarget is the O(1)-per-step detector used for protocols with a
// closed-form stable signature (the paper's protocol via
// core.Protocol.TargetCounts, and the bipartition special case).
// CountsPredicate is the O(|Q|)-per-change fallback for baselines.
// Quiescence detects true dead configurations. Never runs forever thanks
// to Options.MaxInteractions.

// CountTarget stops when the population's canonicalized state counts equal
// a target vector. Canonicalization maps each dense state to a slot; for
// the k-partition protocol initial and initial' share a slot, because the
// stable configuration with n mod k == 1 keeps one free agent flipping
// between them (rule 4) without ever changing group membership.
//
// The detector is incremental: it maintains the number of mismatched slots
// and updates it from the at-most-two state changes per interaction, so a
// step costs O(1) regardless of |Q|.
type CountTarget struct {
	canon    []int // state -> slot
	target   []int // slot -> wanted count
	cur      []int // slot -> current count
	mismatch int
}

// NewCountTarget builds the detector. canon maps every dense state to a
// slot in [0, len(target)).
func NewCountTarget(canon, target []int) *CountTarget {
	return &CountTarget{canon: canon, target: target}
}

// Init implements StopCondition. It reuses the slot counts of an
// earlier run, so a run of a reused CountTarget allocates nothing here.
func (c *CountTarget) Init(pop *population.Population) {
	if cap(c.cur) < len(c.target) {
		c.cur = make([]int, len(c.target))
	}
	c.cur = c.cur[:len(c.target)]
	clear(c.cur)
	for s, n := range pop.CountsView() {
		c.cur[c.canon[s]] += n
	}
	c.mismatch = 0
	for i := range c.cur {
		if c.cur[i] != c.target[i] {
			c.mismatch++
		}
	}
}

// Satisfied reports whether the target already holds after Init; the
// engine consults it before the first step.
func (c *CountTarget) Satisfied() bool { return c.mismatch == 0 }

func (c *CountTarget) move(from, to protocol.State) {
	a, b := c.canon[from], c.canon[to]
	if a == b {
		return
	}
	if c.cur[a] == c.target[a] {
		c.mismatch++
	}
	c.cur[a]--
	if c.cur[a] == c.target[a] {
		c.mismatch--
	}
	if c.cur[b] == c.target[b] {
		c.mismatch++
	}
	c.cur[b]++
	if c.cur[b] == c.target[b] {
		c.mismatch--
	}
}

// Step implements StopCondition.
func (c *CountTarget) Step(pop *population.Population, s StepInfo) bool {
	if !s.Changed {
		return c.mismatch == 0
	}
	if s.Before.P != s.After.P {
		c.move(s.Before.P, s.After.P)
	}
	if s.Before.Q != s.After.Q {
		c.move(s.Before.Q, s.After.Q)
	}
	return c.mismatch == 0
}

// CountsPredicate stops when pred(counts) is true, checking only when the
// configuration changed. Used by baseline protocols whose stable
// configurations form a family rather than a single signature.
type CountsPredicate struct {
	pred func(counts []int) bool
	done bool
}

// NewCountsPredicate wraps pred as a stop condition. pred must not retain
// or modify the slice it is handed.
func NewCountsPredicate(pred func(counts []int) bool) *CountsPredicate {
	return &CountsPredicate{pred: pred}
}

// Init implements StopCondition.
func (c *CountsPredicate) Init(pop *population.Population) {
	c.done = c.pred(pop.CountsView())
}

// Satisfied reports whether the predicate already held at Init.
func (c *CountsPredicate) Satisfied() bool { return c.done }

// Step implements StopCondition.
func (c *CountsPredicate) Step(pop *population.Population, s StepInfo) bool {
	if s.Changed {
		c.done = c.pred(pop.CountsView())
	}
	return c.done
}

// Quiescence stops when no pair of present states admits a productive
// transition: a truly dead configuration. Note the paper's protocol is
// never quiescent when n mod k == 1 (the leftover free agent flips its
// I-state forever), so this condition suits only protocols that freeze,
// e.g. the interval baseline. The check is O(|Q|²) and runs only when the
// configuration changed, with a cheap occupancy fingerprint to skip
// redundant scans.
type Quiescence struct {
	proto protocol.Protocol
	done  bool
}

// NewQuiescence builds the condition for proto.
func NewQuiescence(proto protocol.Protocol) *Quiescence {
	return &Quiescence{proto: proto}
}

// Init implements StopCondition.
func (q *Quiescence) Init(pop *population.Population) { q.done = q.scan(pop) }

// Satisfied reports whether the configuration was already dead at Init.
func (q *Quiescence) Satisfied() bool { return q.done }

// Step implements StopCondition.
func (q *Quiescence) Step(pop *population.Population, s StepInfo) bool {
	if s.Changed {
		q.done = q.scan(pop)
	}
	return q.done
}

func (q *Quiescence) scan(pop *population.Population) bool {
	counts := pop.CountsView()
	for a, ca := range counts {
		if ca == 0 {
			continue
		}
		for b, cb := range counts {
			if cb == 0 || (a == b && ca < 2) {
				continue
			}
			out, _ := q.proto.Delta(protocol.State(a), protocol.State(b))
			if out.P != protocol.State(a) || out.Q != protocol.State(b) {
				return false
			}
		}
	}
	return true
}

// Never is a stop condition that never fires; runs under it end only at
// MaxInteractions. Used by the hostile-scheduler experiments that
// demonstrate starvation.
type Never struct{}

// Init implements StopCondition.
func (Never) Init(*population.Population) {}

// Step implements StopCondition.
func (Never) Step(*population.Population, StepInfo) bool { return false }

// After stops unconditionally once the population has applied the given
// number of interactions; a building block for warm-up phases in tests.
type After struct {
	N uint64
}

// Init implements StopCondition.
func (After) Init(*population.Population) {}

// Step implements StopCondition.
func (a After) Step(pop *population.Population, _ StepInfo) bool {
	return pop.Interactions() >= a.N
}

// Any combines conditions; it stops when any member stops.
type Any []StopCondition

// Init implements StopCondition.
func (a Any) Init(pop *population.Population) {
	for _, c := range a {
		c.Init(pop)
	}
}

// Satisfied reports whether any member is pre-satisfied.
func (a Any) Satisfied() bool {
	for _, c := range a {
		if pre, ok := c.(interface{ Satisfied() bool }); ok && pre.Satisfied() {
			return true
		}
	}
	return false
}

// Step implements StopCondition.
func (a Any) Step(pop *population.Population, s StepInfo) bool {
	stop := false
	for _, c := range a {
		// Evaluate every member: conditions are stateful and must see
		// every step even after another member fires.
		if c.Step(pop, s) {
			stop = true
		}
	}
	return stop
}

// String renders Any for debugging.
func (a Any) String() string { return fmt.Sprintf("Any(%d conditions)", len(a)) }
