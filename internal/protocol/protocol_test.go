package protocol

import (
	"errors"
	"strings"
	"testing"
)

// twoState is a tiny hand-written Protocol used to exercise the validators
// independently of the Table implementation.
type twoState struct {
	badDelta bool
	badGroup bool
	asym     bool
}

func (p twoState) Name() string        { return "two-state" }
func (p twoState) NumStates() int      { return 2 }
func (p twoState) InitialState() State { return 0 }
func (p twoState) NumGroups() int      { return 2 }
func (p twoState) Group(s State) int {
	if p.badGroup {
		return 5
	}
	return int(s) + 1
}
func (p twoState) StateName(s State) string { return []string{"a", "b"}[s] }
func (p twoState) Delta(a, b State) (Pair, bool) {
	if p.badDelta {
		return Pair{9, 9}, true
	}
	if p.asym && a == 0 && b == 0 {
		return Pair{0, 1}, true
	}
	if a == 0 && b == 1 {
		return Pair{1, 0}, true
	}
	return Pair{a, b}, false
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := Validate(twoState{}); err != nil {
		t.Fatalf("Validate rejected well-formed protocol: %v", err)
	}
}

func TestValidateCatchesDeltaEscape(t *testing.T) {
	err := Validate(twoState{badDelta: true})
	if !errors.Is(err, ErrDeltaOutside) {
		t.Fatalf("got %v, want ErrDeltaOutside", err)
	}
}

func TestValidateCatchesGroupEscape(t *testing.T) {
	err := Validate(twoState{badGroup: true})
	if !errors.Is(err, ErrGroupOutside) {
		t.Fatalf("got %v, want ErrGroupOutside", err)
	}
}

func TestCheckSymmetric(t *testing.T) {
	if _, ok := CheckSymmetric(twoState{}); !ok {
		t.Error("symmetric protocol flagged asymmetric")
	}
	if s, ok := CheckSymmetric(twoState{asym: true}); ok || s != 0 {
		t.Errorf("asymmetric rule not flagged (state %d, ok %v)", s, ok)
	}
}

func TestRuleIsSymmetric(t *testing.T) {
	cases := []struct {
		r    Rule
		want bool
	}{
		{Rule{Pair{0, 0}, Pair{1, 1}}, true},  // same-state, same result
		{Rule{Pair{0, 0}, Pair{0, 1}}, false}, // same-state, split result
		{Rule{Pair{0, 1}, Pair{2, 3}}, true},  // distinct states always fine
		{Rule{Pair{2, 2}, Pair{2, 2}}, true},  // identity
	}
	for _, c := range cases {
		if got := c.r.IsSymmetric(); got != c.want {
			t.Errorf("IsSymmetric(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Pair{1, 2}, Pair{1, 2}}
	if s := r.String(); !strings.Contains(s, "->") {
		t.Errorf("String = %q", s)
	}
}

func TestRulesEnumeration(t *testing.T) {
	rules := Rules(twoState{})
	if len(rules) != 1 {
		t.Fatalf("got %d rules, want 1: %v", len(rules), rules)
	}
	want := Rule{Pair{0, 1}, Pair{1, 0}}
	if rules[0] != want {
		t.Fatalf("got %v, want %v", rules[0], want)
	}
}

func TestFormatRules(t *testing.T) {
	out := FormatRules(twoState{}, Rules(twoState{}))
	if !strings.Contains(out, "(a, b) -> (b, a)") {
		t.Errorf("FormatRules output %q", out)
	}
}

// --- Table / Builder ---

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("toy", true)
	a := b.AddState("a", 1)
	c := b.AddState("c", 2)
	b.SetInitial(a)
	b.AddRule(a, a, c, c)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "toy" || tab.NumStates() != 2 || tab.NumGroups() != 2 {
		t.Fatalf("metadata wrong: %s %d %d", tab.Name(), tab.NumStates(), tab.NumGroups())
	}
	out, fired := tab.Delta(a, a)
	if !fired || out != (Pair{c, c}) {
		t.Fatalf("delta(a,a) = %v fired=%v", out, fired)
	}
	out, fired = tab.Delta(c, c)
	if fired || out != (Pair{c, c}) {
		t.Fatalf("delta(c,c) = %v fired=%v, want identity/unfired", out, fired)
	}
	if err := Validate(tab); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderMirrors(t *testing.T) {
	b := NewBuilder("toy", true)
	a := b.AddState("a", 1)
	c := b.AddState("c", 1)
	x := b.AddState("x", 1)
	y := b.AddState("y", 1)
	b.SetInitial(a)
	b.AddRule(a, c, x, y)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, fired := tab.Delta(c, a)
	if !fired || out != (Pair{y, x}) {
		t.Fatalf("mirror delta(c,a) = %v fired=%v, want (y,x)", out, fired)
	}
}

func TestBuilderRejectsMirrorConflict(t *testing.T) {
	// An explicit rule for (c,a) that disagrees with the mirror of the
	// (a,c) rule makes the unordered-encounter semantics ambiguous; the
	// builder must reject it rather than pick a winner silently.
	b := NewBuilder("toy", false)
	a := b.AddState("a", 1)
	c := b.AddState("c", 1)
	x := b.AddState("x", 1)
	b.SetInitial(a)
	b.AddRule(a, c, x, x)
	b.AddRule(c, a, c, a) // conflicts with the implied mirror (c,a)->(x,x)
	if _, err := b.Build(); !errors.Is(err, ErrNotDeterministic) {
		t.Fatalf("got %v, want ErrNotDeterministic", err)
	}
	// A consistent explicit mirror must be accepted.
	b2 := NewBuilder("toy", false)
	a2 := b2.AddState("a", 1)
	c2 := b2.AddState("c", 1)
	x2 := b2.AddState("x", 1)
	b2.SetInitial(a2)
	b2.AddRule(a2, c2, x2, x2)
	b2.AddRule(c2, a2, x2, x2)
	if _, err := b2.Build(); err != nil {
		t.Fatalf("consistent explicit mirror rejected: %v", err)
	}
}

func TestBuilderRejectsConflicts(t *testing.T) {
	b := NewBuilder("toy", false)
	a := b.AddState("a", 1)
	c := b.AddState("c", 1)
	b.SetInitial(a)
	b.AddRule(a, c, a, a)
	b.AddRule(a, c, c, c)
	if _, err := b.Build(); !errors.Is(err, ErrNotDeterministic) {
		t.Fatalf("got %v, want ErrNotDeterministic", err)
	}
}

func TestBuilderRejectsAsymmetric(t *testing.T) {
	b := NewBuilder("toy", true)
	a := b.AddState("a", 1)
	c := b.AddState("c", 1)
	b.SetInitial(a)
	b.AddRule(a, a, a, c) // asymmetric: same pair, split result
	if _, err := b.Build(); !errors.Is(err, ErrAsymmetric) {
		t.Fatalf("got %v, want ErrAsymmetric", err)
	}
	// The same rule must be accepted when symmetry is not required.
	b2 := NewBuilder("toy", false)
	a2 := b2.AddState("a", 1)
	c2 := b2.AddState("c", 1)
	b2.SetInitial(a2)
	b2.AddRule(a2, a2, a2, c2)
	if _, err := b2.Build(); err != nil {
		t.Fatalf("asymmetric protocol rejected without symmetric flag: %v", err)
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("e", true).Build(); !errors.Is(err, ErrNoStates) {
		t.Fatalf("got %v, want ErrNoStates", err)
	}
}

func TestBuilderRejectsRuleOutOfRange(t *testing.T) {
	b := NewBuilder("toy", false)
	a := b.AddState("a", 1)
	b.SetInitial(a)
	b.AddRule(a, 7, a, a)
	if _, err := b.Build(); !errors.Is(err, ErrDeltaOutside) {
		t.Fatalf("got %v, want ErrDeltaOutside", err)
	}
}

func TestBuilderRejectsBadInitial(t *testing.T) {
	b := NewBuilder("toy", false)
	b.AddState("a", 1)
	b.SetInitial(5)
	if _, err := b.Build(); !errors.Is(err, ErrInitialOutside) {
		t.Fatalf("got %v, want ErrInitialOutside", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid builder")
		}
	}()
	NewBuilder("e", true).MustBuild()
}

func TestTableStateNameFallback(t *testing.T) {
	b := NewBuilder("toy", true)
	a := b.AddState("a", 1)
	b.SetInitial(a)
	tab := b.MustBuild()
	if got := tab.StateName(99); !strings.Contains(got, "99") {
		t.Errorf("fallback name %q", got)
	}
}

func TestAddOrderedRuleNoMirror(t *testing.T) {
	b := NewBuilder("toy", false)
	x := b.AddState("x", 1)
	y := b.AddState("y", 1)
	bl := b.AddState("bl", 1)
	b.SetInitial(x)
	b.AddOrderedRule(x, y, x, bl)
	b.AddOrderedRule(y, x, y, bl)
	tab := b.MustBuild()
	out, _ := tab.Delta(x, y)
	if out != (Pair{x, bl}) {
		t.Fatalf("delta(x,y) = %v", out)
	}
	out, _ = tab.Delta(y, x)
	if out != (Pair{y, bl}) {
		t.Fatalf("delta(y,x) = %v; ordered rules must not mirror", out)
	}
}

func TestOrderedRuleRejectedInSymmetricBuilder(t *testing.T) {
	b := NewBuilder("toy", true)
	x := b.AddState("x", 1)
	y := b.AddState("y", 1)
	b.SetInitial(x)
	b.AddOrderedRule(x, y, y, x)
	if _, err := b.Build(); !errors.Is(err, ErrAsymmetric) {
		t.Fatalf("got %v, want ErrAsymmetric", err)
	}
}

func TestWriteDot(t *testing.T) {
	b := NewBuilder(`toy"quoted`, true)
	a := b.AddState("a", 1)
	c := b.AddState("c", 2)
	b.SetInitial(a)
	b.AddRule(a, c, c, c)
	tab := b.MustBuild()
	var sb strings.Builder
	if err := WriteDot(&sb, tab); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "doublecircle", "s0 -> s1", `\"quoted`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
}
