package protocol

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Property-based tests over RANDOM protocols: generate arbitrary rule sets
// through the Builder and verify the structural guarantees the rest of the
// repository depends on — any table that Build accepts must validate,
// be mirror-closed on its unordered rules, and classify symmetric exactly
// when no same-state rule splits.

// randomBuilder constructs a random protocol from a seed: nStates states,
// nRules random unordered rules (skipping combinations that would
// conflict).
func randomBuilder(seed uint64, symmetric bool) *Table {
	r := rng.New(seed)
	nStates := 2 + r.Intn(10)
	b := NewBuilder("fuzz", symmetric)
	for i := 0; i < nStates; i++ {
		b.AddState("", 1+r.Intn(3))
	}
	b.SetInitial(State(r.Intn(nStates)))
	bound := make(map[Pair]Pair)
	nRules := r.Intn(15)
	for i := 0; i < nRules; i++ {
		from := Pair{State(r.Intn(nStates)), State(r.Intn(nStates))}
		to := Pair{State(r.Intn(nStates)), State(r.Intn(nStates))}
		if symmetric && from.P == from.Q && to.P != to.Q {
			to.Q = to.P // repair into a symmetric rule
		}
		// Skip rules that would conflict with an earlier one (in either
		// orientation) — Build would rightly reject them.
		if _, dup := bound[from]; dup {
			continue
		}
		if prev, dup := bound[Pair{from.Q, from.P}]; dup && from.P != from.Q {
			want := Pair{prev.Q, prev.P}
			if want != to {
				continue
			}
		}
		bound[from] = to
		b.AddRule(from.P, from.Q, to.P, to.Q)
	}
	tab, err := b.Build()
	if err != nil {
		return nil
	}
	return tab
}

func TestQuickRandomTablesValidate(t *testing.T) {
	f := func(seed uint64) bool {
		tab := randomBuilder(seed, false)
		if tab == nil {
			return true // Build rejected; acceptable for random input
		}
		return Validate(tab) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomTablesMirrorClosed(t *testing.T) {
	f := func(seed uint64) bool {
		tab := randomBuilder(seed, false)
		if tab == nil {
			return true
		}
		n := tab.NumStates()
		for a := 0; a < n; a++ {
			// Diagonal rules (a, a) -> (x, y) with x != y are resolved by
			// initiator role and cannot be mirror-closed by definition;
			// the property applies to distinct-state encounters.
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				ab, _ := tab.Delta(State(a), State(b))
				ba, _ := tab.Delta(State(b), State(a))
				if ab.P != ba.Q || ab.Q != ba.P {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSymmetricBuildsAreSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		tab := randomBuilder(seed, true)
		if tab == nil {
			return true
		}
		_, ok := CheckSymmetric(tab)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
