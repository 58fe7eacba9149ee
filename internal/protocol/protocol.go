// Package protocol defines the population protocol model of Angluin et al.
// (Distributed Computing, 2006) as used by the paper: a finite state set Q,
// a deterministic transition relation δ on ordered pairs of states, and a
// group-output mapping f. Every concrete protocol in this repository —
// the paper's uniform k-partition protocol (internal/core), the bipartition
// special case, and the baselines — implements the Protocol interface.
//
// # Conventions
//
// States are dense small integers (type State) in [0, NumStates). This makes
// a transition a single lookup in a NumStates×NumStates table, which is what
// lets the Figure 5/6 workloads (n = 960, interaction counts exponential in
// k) run in seconds.
//
// A transition δ(p, q) = (p', q') is represented by the Pair type. When a
// rule leaves both participants unchanged it is called a null transition;
// engines still count it as an interaction, matching Section 5 of the paper
// which counts the total number of interactions, productive or not.
package protocol

import (
	"errors"
	"fmt"
)

// State is an agent state, a dense index in [0, NumStates).
type State = uint16

// MaxStates bounds the number of states a protocol may declare. Transition
// tables are NumStates² entries, so 1<<12 states caps a table at 32 MiB.
const MaxStates = 1 << 12

// Pair is an ordered pair of states: the result of one interaction. By the
// convention of the paper, when agents in states p and q interact via rule
// (p, q) → (p', q'), the initiator moves to P and the responder to Q.
type Pair struct {
	P, Q State
}

// Protocol is a population protocol P = (Q, δ) together with the output
// mapping f and metadata. Implementations must be immutable after
// construction; methods must be safe for concurrent readers.
type Protocol interface {
	// Name identifies the protocol in reports and traces.
	Name() string

	// NumStates returns |Q|. Valid states are 0..NumStates()-1.
	NumStates() int

	// InitialState returns the designated initial state s0.
	InitialState() State

	// Delta applies δ to the ordered pair (p, q). The boolean reports
	// whether a non-null rule fired (false means identity/no rule, in
	// which case the returned pair is (p, q) itself).
	Delta(p, q State) (Pair, bool)

	// Group returns f(s): the group index in 1..NumGroups the state maps
	// to. Every state must map to some group so that group sizes are
	// defined at every configuration, as in Section 2.2 of the paper.
	Group(s State) int

	// NumGroups returns k, the number of groups in the output partition.
	NumGroups() int

	// StateName returns a human-readable name for s (e.g. "m3", "g1",
	// "initial'"). Used in traces and error messages.
	StateName(s State) string
}

// Rule is one explicit transition used when building table-driven
// protocols and when enumerating a protocol's rules for validation.
type Rule struct {
	From Pair // interacting pair (initiator, responder)
	To   Pair // resulting pair
}

// String renders the rule in the paper's arrow notation.
func (r Rule) String() string {
	return fmt.Sprintf("(%d,%d) -> (%d,%d)", r.From.P, r.From.Q, r.To.P, r.To.Q)
}

// IsSymmetric reports whether the rule satisfies the symmetry condition of
// Section 2.1: a rule (p, q) → (p', q') is asymmetric iff p == q and
// p' != q'; every other rule is symmetric.
func (r Rule) IsSymmetric() bool {
	return r.From.P != r.From.Q || r.To.P == r.To.Q
}

// Errors returned by Validate.
var (
	ErrTooManyStates    = errors.New("protocol: state count exceeds MaxStates")
	ErrNoStates         = errors.New("protocol: protocol declares no states")
	ErrInitialOutside   = errors.New("protocol: initial state outside state set")
	ErrDeltaOutside     = errors.New("protocol: delta produces state outside state set")
	ErrGroupOutside     = errors.New("protocol: group mapping outside 1..k")
	ErrAsymmetric       = errors.New("protocol: asymmetric rule in symmetric protocol")
	ErrNotDeterministic = errors.New("protocol: conflicting transitions for a pair")
)

// Validate checks the structural well-formedness of p: state bounds, that
// δ never leaves the state set, and that f maps every state into 1..k.
// It exercises δ on every ordered pair, so it is O(|Q|²).
func Validate(p Protocol) error {
	n := p.NumStates()
	if n <= 0 {
		return ErrNoStates
	}
	if n > MaxStates {
		return fmt.Errorf("%w: %d > %d", ErrTooManyStates, n, MaxStates)
	}
	if int(p.InitialState()) >= n {
		return fmt.Errorf("%w: s0=%d, |Q|=%d", ErrInitialOutside, p.InitialState(), n)
	}
	k := p.NumGroups()
	for s := 0; s < n; s++ {
		g := p.Group(State(s))
		if g < 1 || g > k {
			return fmt.Errorf("%w: f(%s)=%d, k=%d", ErrGroupOutside, p.StateName(State(s)), g, k)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			out, _ := p.Delta(State(a), State(b))
			if int(out.P) >= n || int(out.Q) >= n {
				return fmt.Errorf("%w: delta(%d,%d)=(%d,%d)", ErrDeltaOutside, a, b, out.P, out.Q)
			}
		}
	}
	return nil
}

// CheckSymmetric reports whether p is a symmetric protocol in the sense of
// Section 2.1: for every state q, δ(q, q) = (q', q') for some q'. It
// returns the first offending state if not.
func CheckSymmetric(p Protocol) (State, bool) {
	n := p.NumStates()
	for s := 0; s < n; s++ {
		out, _ := p.Delta(State(s), State(s))
		if out.P != out.Q {
			return State(s), false
		}
	}
	return 0, true
}

// Rules enumerates every non-null rule of p by probing all ordered pairs.
// The slice is ordered by (p, q). Useful for printing a protocol as an
// Algorithm-1-style rule listing and for cross-validating hand-written
// tables against generated transition functions.
func Rules(p Protocol) []Rule {
	n := p.NumStates()
	var out []Rule
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			to, fired := p.Delta(State(a), State(b))
			if fired && (to.P != State(a) || to.Q != State(b)) {
				out = append(out, Rule{From: Pair{State(a), State(b)}, To: to})
			}
		}
	}
	return out
}

// FormatRules renders rules using p's state names, one per line, in the
// paper's notation, e.g. "(initial, initial') -> (g1, m2)".
func FormatRules(p Protocol, rules []Rule) string {
	out := ""
	for _, r := range rules {
		out += fmt.Sprintf("(%s, %s) -> (%s, %s)\n",
			p.StateName(r.From.P), p.StateName(r.From.Q),
			p.StateName(r.To.P), p.StateName(r.To.Q))
	}
	return out
}
