package twin

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/markov"
)

// exactFixtures are the (n, k) points small enough for internal/markov's
// full configuration chain, covering r = 0 and r > 0, k = 2..4.
var exactFixtures = []struct{ n, k int }{
	{6, 2}, {7, 2}, {6, 3}, {7, 3}, {8, 3}, {9, 3}, {8, 4}, {9, 4},
}

func TestLumpedMatchesMarkovExactly(t *testing.T) {
	for _, fx := range exactFixtures {
		rep, err := CrossValidateExact(fx.n, fx.k)
		if err != nil {
			t.Fatalf("CrossValidateExact(%d, %d): %v", fx.n, fx.k, err)
		}
		// The contract is RelErrExact (0.1%); the actual agreement is at
		// solver tolerance. Assert well inside the contract so drift shows
		// up long before the gate trips.
		if rep.MaxRelErr > 1e-7 {
			t.Errorf("n=%d k=%d: max rel err %.3g (mean %.6f vs %.6f, std %.6f vs %.6f)",
				fx.n, fx.k, rep.MaxRelErr, rep.Mean, rep.ExactMean, rep.Std, rep.ExactStd)
		}
	}
}

func TestLumpedMilestonesShape(t *testing.T) {
	pr, err := NewLumped().Predict(Spec{N: 13, K: 3, Milestones: true})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	q := 13 / 3
	if len(pr.Milestones) != q {
		t.Fatalf("got %d milestones, want %d", len(pr.Milestones), q)
	}
	prev := 0.0
	for j, m := range pr.Milestones {
		if m <= prev {
			t.Errorf("milestone %d = %g not strictly increasing past %g", j+1, m, prev)
		}
		prev = m
	}
	if last := pr.Milestones[q-1]; last > pr.ExpectedInteractions+1e-9 {
		t.Errorf("last milestone %g exceeds stabilization %g", last, pr.ExpectedInteractions)
	}
}

// The reduced chain must be isomorphic to the full configuration
// graph: Lemma 1 makes the projection a bijection on
// reachable configurations, so the node counts must agree EXACTLY —
// fewer would mean an invalid merge, more would mean decode/encode
// disagree.
func TestLumpedBijectsOntoFullChain(t *testing.T) {
	for _, fx := range exactFixtures {
		pr, err := NewLumped().Predict(Spec{N: fx.n, K: fx.k})
		if err != nil {
			t.Fatalf("Predict(%d, %d): %v", fx.n, fx.k, err)
		}
		ch, err := markov.New(harness.Proto(fx.k), fx.n)
		if err != nil {
			t.Fatalf("markov.New(%d, %d): %v", fx.n, fx.k, err)
		}
		if full := len(ch.Graph.Nodes); pr.States != full {
			t.Errorf("n=%d k=%d: lumped %d states, full chain %d — projection is not a bijection",
				fx.n, fx.k, pr.States, full)
		}
		// endgameCount from level 0 counts all Lemma-1-consistent vectors,
		// a superset of the reachable set, so it must upper-bound the
		// built chain.
		if cap := endgameCount(fx.n, fx.k, 0, 1<<30); pr.States > cap {
			t.Errorf("n=%d k=%d: built %d states above enumeration bound %d",
				fx.n, fx.k, pr.States, cap)
		}
	}
}

// A k above n only relabels the chain: no group completes and no m-state
// past m_n appears, so n = 12 has the same answer at k = 13 and at the
// largest k. There the move table spans 4096² state pairs and about a
// million distinct deltas; it must tabulate in O(1) per pair, where a
// linear search for each pair's delta took hours.
func TestLumpedLargeK(t *testing.T) {
	if testing.Short() {
		t.Skip("the largest k's move table takes about a second")
	}
	want, err := NewLumped().Predict(Spec{N: 12, K: 13})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewLumped().Predict(Spec{N: 12, K: harness.MaxK})
	if err != nil {
		t.Fatal(err)
	}
	if got.States != want.States ||
		relErr(got.ExpectedInteractions, want.ExpectedInteractions) > 1e-12 ||
		relErr(got.StdInteractions, want.StdInteractions) > 1e-12 {
		t.Errorf("n=12: k=%d answers %+v, k=13 %+v", harness.MaxK, got, want)
	}
}

func TestLumpedBudgetExceeded(t *testing.T) {
	_, err := buildLumped(harness.Proto(3), 30, 3)
	if err == nil {
		t.Fatal("expected budget error, got nil")
	}
}

func TestLumpedRejectsInvalidSpec(t *testing.T) {
	for _, s := range []Spec{{N: 0, K: 3}, {N: 10, K: 1}, {N: -2, K: 2}} {
		_, err := NewLumped().Predict(s)
		if !errors.Is(err, harness.ErrInvalidSpec) {
			t.Errorf("Predict(%+v): err = %v, want ErrInvalidSpec", s, err)
		}
	}
}

func TestEnumerateLevelConsistent(t *testing.T) {
	p := harness.Proto(4)
	n := 17
	for c := 0; c <= n/4; c++ {
		vecs := enumerateLevel(p, n, c)
		seen := make(map[string]bool, len(vecs))
		counts := make([]int, p.NumStates())
		for _, vec := range vecs {
			key := fmt.Sprint(vec)
			if seen[key] {
				t.Fatalf("level %d: duplicate vector %v", c, vec)
			}
			seen[key] = true
			decodeFull(p, vec, 0, counts)
			pop := 0
			for _, ct := range counts {
				pop += ct
			}
			if pop != n {
				t.Fatalf("level %d: vector %v decodes to population %d, want %d", c, vec, pop, n)
			}
			if err := p.CheckInvariant(counts); err != nil {
				t.Fatalf("level %d: vector %v violates Lemma 1: %v", c, vec, err)
			}
		}
	}
}

func TestSelectPicksRungByBudget(t *testing.T) {
	if m := Select(10, 3); m.Name() != "lumped" {
		t.Errorf("Select(10, 3) = %s, want lumped", m.Name())
	}
	if m := Select(100_000, 3); m.Name() != "meanfield" {
		t.Errorf("Select(100000, 3) = %s, want meanfield", m.Name())
	}
	if LumpedFits(10, 3, 1) {
		t.Error("LumpedFits(10, 3, budget 1) = true, want false")
	}
}
