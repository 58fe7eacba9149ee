package sched

import (
	"repro/internal/protocol"
	"repro/internal/rng"
)

// This file implements the weak-fairness adversary: the strongest
// scheduler the harness can field that is still WEAKLY fair (every pair
// of its domain interacts infinitely often in any infinite execution)
// while being as hostile to the k-partition protocol as that constraint
// allows. It mechanizes the gap the follow-up paper "Uniform Partition
// … under Weak Fairness" (arXiv:1911.04678) studies: the paper's
// protocol is proved correct only under GLOBAL fairness, and weak
// fairness admits adversaries like this one that slow it down by
// starving the initial/initial' rendezvous for as long as the fairness
// obligation permits.

// DefaultWeakPatience is the obligation cadence of NewWeakAdversary
// when WeakOptions.Patience is zero: one forced rotation pair every 4
// steps bounds any pair's starvation at 4·|domain| scheduled steps.
const DefaultWeakPatience = 4

// WeakOptions configures a WeakAdversary.
type WeakOptions struct {
	// Pairs restricts the interaction domain to a fixed list of ordered
	// pairs (both orientations of a graph's edges, say). nil means the
	// complete domain: all ordered pairs over the view's current
	// population, re-derived each step so the adversary follows churn.
	Pairs [][2]int
	// IsFree classifies the protocol's handshake ("I") states; the
	// adversary prefers pairs of free agents sharing one I-state, which
	// only oscillate rules 1/2 and never commit a group. nil disables
	// the preference (the adversary degenerates to rotation + random).
	IsFree func(protocol.State) bool
	// Patience is the obligation cadence: every Patience-th step is
	// forcibly given to the next pair of a fixed cyclic enumeration of
	// the domain, which is what makes the scheduler weakly fair. Zero
	// selects DefaultWeakPatience. Larger values are more hostile —
	// starvation gaps grow linearly with Patience — but any finite value
	// keeps every infinite execution weakly fair.
	Patience int
}

// WeakAdversary is a weakly fair but adversarial scheduler: it
// schedules a same-I-state free pair whenever one exists (forcing the
// parity oscillation of rules 1/2, the Figure 1 starvation pattern),
// except that every Patience-th step goes to the next pair of a cyclic
// rotation over the whole domain. The rotation guarantees every pair a
// turn at least once per Patience·|domain| steps — weak fairness with
// an explicit bound — while the hostile steps between turns starve the
// initial/initial' rendezvous the protocol's progress depends on.
//
// Unlike Hostile, which simply ignores fairness, a WeakAdversary obeys
// the letter of weak fairness — and still defeats the paper's protocol:
// outside the obligation turns its choices are deterministic (first
// same-state free pair in index order), so the execution can fall into
// a lap that revisits the same configurations forever without ever
// pairing initial with initial' at an obligation turn. Every PAIR still
// interacts infinitely often; the CONFIGURATIONS needed for progress
// stop occurring. That is precisely the gap between weak and global
// fairness (global fairness quantifies over configurations, not pairs),
// and the package tests pin it down: runs that stabilize in thousands
// of interactions under uniform random run forever under this
// scheduler. The fairness meter still separates the three regimes —
// uniform-random drives starved pairs and dispersion to zero,
// WeakAdversary keeps dispersion high with zero starved pairs in the
// limit, Hostile starves entire pair classes forever.
type WeakAdversary struct {
	r        *rng.Rand
	opts     WeakOptions
	patience int
	step     uint64
	// cursor indexes opts.Pairs, or enumerates the complete domain
	// sweep-style when opts.Pairs is nil.
	cursor int
	i, j   int
}

// NewWeakAdversary builds the adversary with its own generator seeded
// by seed (the generator only breaks ties when no hostile pair exists).
func NewWeakAdversary(seed uint64, opts WeakOptions) *WeakAdversary {
	p := opts.Patience
	if p <= 0 {
		p = DefaultWeakPatience
	}
	return &WeakAdversary{r: rng.New(seed), opts: opts, patience: p, i: 0, j: 1}
}

// Name implements Scheduler.
func (w *WeakAdversary) Name() string { return "weak-adversary" }

// Next implements Scheduler.
func (w *WeakAdversary) Next(v View) (int, int) {
	w.step++
	if w.step%uint64(w.patience) == 0 {
		return w.rotate(v)
	}
	if i, j, ok := w.hostilePair(v); ok {
		return i, j
	}
	// No oscillation pair available (fewer than two same-parity free
	// agents in the domain): fall back to a random domain pair so the
	// execution keeps the paper's "anything can happen" texture between
	// obligation turns.
	return w.randomPair(v)
}

// rotate returns the next pair of the cyclic domain enumeration.
func (w *WeakAdversary) rotate(v View) (int, int) {
	if w.opts.Pairs != nil {
		p := w.opts.Pairs[w.cursor%len(w.opts.Pairs)]
		w.cursor = (w.cursor + 1) % len(w.opts.Pairs)
		return p[0], p[1]
	}
	n := v.N()
	if w.i >= n || w.j >= n { // population shrank under churn; restart
		w.i, w.j = 0, 1
	}
	i, j := w.i, w.j
	w.j++
	if w.j == w.i {
		w.j++
	}
	if w.j >= n {
		w.j = 0
		w.i++
		if w.i >= n {
			w.i = 0
			w.j = 1
		}
	}
	return i, j
}

// hostilePair scans the domain for two free agents in the same I-state.
func (w *WeakAdversary) hostilePair(v View) (int, int, bool) {
	if w.opts.IsFree == nil {
		return 0, 0, false
	}
	if w.opts.Pairs != nil {
		for _, p := range w.opts.Pairs {
			a, b := v.State(p[0]), v.State(p[1])
			if w.opts.IsFree(a) && a == b {
				return p[0], p[1], true
			}
		}
		return 0, 0, false
	}
	// Complete domain: one linear scan, exactly like Hostile's fast path.
	n := v.N()
	first := map[protocol.State]int{}
	for i := 0; i < n; i++ {
		st := v.State(i)
		if !w.opts.IsFree(st) {
			continue
		}
		if j, ok := first[st]; ok {
			return j, i, true
		}
		first[st] = i
	}
	return 0, 0, false
}

// randomPair draws a uniform pair from the domain.
func (w *WeakAdversary) randomPair(v View) (int, int) {
	if w.opts.Pairs != nil {
		p := w.opts.Pairs[w.r.Intn(len(w.opts.Pairs))]
		return p[0], p[1]
	}
	return w.r.Pair(v.N())
}
