package protocol

import "fmt"

// Table is a dense, immutable transition-table implementation of Protocol.
// Its Delta is two multiplications and one slice read, so it is the
// preferred representation for simulation; protocols whose rules are
// generated programmatically (like the paper's Algorithm 1) are compiled
// into a Table once and then queried millions of times.
type Table struct {
	name      string
	numStates int
	numGroups int
	initial   State
	// delta[p*numStates+q] holds the ordered result of an interaction
	// between initiator p and responder q.
	delta []Pair
	// fired[p*numStates+q] records whether a non-null rule covers (p,q).
	fired  []bool
	groups []int
	names  []string
}

var _ Protocol = (*Table)(nil)

// Builder accumulates states and rules and produces a validated Table.
// The zero value is not usable; create one with NewBuilder.
type Builder struct {
	name      string
	numGroups int
	initial   State
	states    []string
	groups    []int
	rules     []Rule
	ordered   []bool // parallel to rules: true suppresses the mirror
	symmetric bool   // require symmetric rules at Build time
}

// NewBuilder starts a protocol definition. If symmetric is true, Build
// rejects any asymmetric rule, enforcing the restriction the paper places
// on its protocol class.
func NewBuilder(name string, symmetric bool) *Builder {
	return &Builder{name: name, symmetric: symmetric}
}

// AddState declares a state with a display name and its group under f,
// returning the state's dense index.
func (b *Builder) AddState(name string, group int) State {
	b.states = append(b.states, name)
	b.groups = append(b.groups, group)
	if group > b.numGroups {
		b.numGroups = group
	}
	return State(len(b.states) - 1)
}

// SetInitial designates the initial state s0.
func (b *Builder) SetInitial(s State) { b.initial = s }

// AddRule records the transition (p, q) → (p', q').
//
// Rules are interpreted on unordered encounters: when agents in states p
// and q meet (p != q), the rule fires regardless of which agent the
// scheduler picked first, with the p-agent taking p' and the q-agent q'.
// The Table therefore also installs the mirrored entry (q, p) → (q', p'),
// unless a rule for (q, p) was added explicitly.
func (b *Builder) AddRule(p, q, pp, qq State) {
	b.rules = append(b.rules, Rule{From: Pair{p, q}, To: Pair{pp, qq}})
	b.ordered = append(b.ordered, false)
}

// AddOrderedRule records a transition that applies only with p as the
// initiator and q as the responder; no mirrored entry is installed. This
// is the one-way interaction model of protocols like approximate majority,
// where the initiator converts the responder. Ordered rules break the
// unordered-encounter symmetry, so they are rejected when the builder was
// created with symmetric = true.
func (b *Builder) AddOrderedRule(p, q, pp, qq State) {
	b.rules = append(b.rules, Rule{From: Pair{p, q}, To: Pair{pp, qq}})
	b.ordered = append(b.ordered, true)
}

// Build compiles the accumulated definition into a Table, validating
// determinism (no pair bound twice with different results), symmetry when
// requested, and state bounds.
func (b *Builder) Build() (*Table, error) {
	n := len(b.states)
	if n == 0 {
		return nil, ErrNoStates
	}
	if n > MaxStates {
		return nil, fmt.Errorf("%w: %d", ErrTooManyStates, n)
	}
	if int(b.initial) >= n {
		return nil, fmt.Errorf("%w: s0=%d", ErrInitialOutside, b.initial)
	}
	t := &Table{
		name:      b.name,
		numStates: n,
		numGroups: b.numGroups,
		initial:   b.initial,
		delta:     make([]Pair, n*n),
		fired:     make([]bool, n*n),
		groups:    append([]int(nil), b.groups...),
		names:     append([]string(nil), b.states...),
	}
	// Identity default.
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			t.delta[p*n+q] = Pair{State(p), State(q)}
		}
	}
	// Explicit rules first; mirrors second so conflicts surface.
	for ri, r := range b.rules {
		if int(r.From.P) >= n || int(r.From.Q) >= n || int(r.To.P) >= n || int(r.To.Q) >= n {
			return nil, fmt.Errorf("%w: rule %v", ErrDeltaOutside, r)
		}
		if b.symmetric && (!r.IsSymmetric() || b.ordered[ri]) {
			return nil, fmt.Errorf("%w: rule %v", ErrAsymmetric, r)
		}
		idx := int(r.From.P)*n + int(r.From.Q)
		if t.fired[idx] && t.delta[idx] != r.To {
			return nil, fmt.Errorf("%w: pair (%s,%s) bound to both (%d,%d) and (%d,%d)",
				ErrNotDeterministic, t.names[r.From.P], t.names[r.From.Q],
				t.delta[idx].P, t.delta[idx].Q, r.To.P, r.To.Q)
		}
		t.delta[idx] = r.To
		t.fired[idx] = true
	}
	for ri, r := range b.rules {
		if r.From.P == r.From.Q || b.ordered[ri] {
			continue
		}
		idx := int(r.From.Q)*n + int(r.From.P)
		mirror := Pair{r.To.Q, r.To.P}
		if t.fired[idx] {
			if t.delta[idx] != mirror {
				return nil, fmt.Errorf("%w: pair (%s,%s) has conflicting mirror",
					ErrNotDeterministic, t.names[r.From.Q], t.names[r.From.P])
			}
			continue
		}
		t.delta[idx] = mirror
		t.fired[idx] = true
	}
	return t, nil
}

// MustBuild is Build that panics on error; for protocol constructors whose
// inputs are validated before building (e.g. the k-partition generator).
func (b *Builder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Protocol.
func (t *Table) Name() string { return t.name }

// NumStates implements Protocol.
func (t *Table) NumStates() int { return t.numStates }

// NumGroups implements Protocol.
func (t *Table) NumGroups() int { return t.numGroups }

// InitialState implements Protocol.
func (t *Table) InitialState() State { return t.initial }

// Delta implements Protocol.
func (t *Table) Delta(p, q State) (Pair, bool) {
	idx := int(p)*t.numStates + int(q)
	return t.delta[idx], t.fired[idx]
}

// TransitionsView returns the live transition table: entry
// p*NumStates()+q holds δ(p, q). Callers must not modify it; it is
// exposed without copying for the agent engine's hot loop. A type that
// embeds a Table and overrides Delta must override this view too.
func (t *Table) TransitionsView() []Pair { return t.delta }

// Group implements Protocol.
func (t *Table) Group(s State) int { return t.groups[s] }

// StateName implements Protocol.
func (t *Table) StateName(s State) string {
	if int(s) < len(t.names) {
		return t.names[s]
	}
	return fmt.Sprintf("state#%d", s)
}

// NonNullRuleCount returns the number of ordered pairs covered by a
// non-null rule; a cheap structural fingerprint used in tests.
func (t *Table) NonNullRuleCount() int {
	c := 0
	for i, f := range t.fired {
		if f && t.delta[i] != (Pair{State(i / t.numStates), State(i % t.numStates)}) {
			c++
		}
	}
	return c
}
