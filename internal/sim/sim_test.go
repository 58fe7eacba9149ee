package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sched"
)

func mustTarget(t testing.TB, p *core.Protocol, n int) *CountTarget {
	t.Helper()
	tgt, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	return NewCountTarget(p.CanonMap(), tgt)
}

func TestRunStabilizes(t *testing.T) {
	p := core.MustNew(4)
	pop := population.New(p, 20)
	res, err := Run(pop, sched.NewRandom(1), mustTarget(t, p, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Interactions == 0 || res.Productive == 0 || res.Productive > res.Interactions {
		t.Fatalf("counter inconsistency: %+v", res)
	}
	if res.Spread() > 1 {
		t.Fatalf("non-uniform final partition: %v", res.GroupSizes)
	}
	if got := pop.Interactions(); got != res.Interactions {
		t.Fatalf("population says %d interactions, result says %d", got, res.Interactions)
	}
}

func TestRunHonorsMaxInteractions(t *testing.T) {
	p := core.MustNew(4)
	pop := population.New(p, 20)
	res, err := Run(pop, sched.NewRandom(1), Never{}, Options{MaxInteractions: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("Never condition converged")
	}
	if res.Interactions != 1234 {
		t.Fatalf("ran %d interactions, want 1234", res.Interactions)
	}
}

func TestRunPreSatisfiedTarget(t *testing.T) {
	p := core.MustNew(3)
	// Start in a stable configuration: g1 g1 g2 g2 g3 g3.
	pop := population.FromStates(p, []protocol.State{
		p.G(1), p.G(1), p.G(2), p.G(2), p.G(3), p.G(3),
	})
	res, err := Run(pop, sched.NewRandom(1), mustTarget(t, p, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Interactions != 0 {
		t.Fatalf("pre-satisfied target not detected: %+v", res)
	}
}

func TestHooksSeeEveryStep(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 9)
	var steps uint64
	hook := StepFunc(func(pop *population.Population, s StepInfo) { steps++ })
	res, err := Run(pop, sched.NewRandom(2), After{N: 500}, Options{Hooks: []Hook{hook}})
	if err != nil {
		t.Fatal(err)
	}
	if steps != res.Interactions {
		t.Fatalf("hook saw %d steps, result has %d", steps, res.Interactions)
	}
}

func TestStepInfoAccuracy(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 6)
	hook := StepFunc(func(pop *population.Population, s StepInfo) {
		if s.I == s.J {
			t.Fatal("self pair in StepInfo")
		}
		if pop.State(s.I) != s.After.P || pop.State(s.J) != s.After.Q {
			t.Fatal("After does not match population")
		}
		want, _ := p.Delta(s.Before.P, s.Before.Q)
		if want != s.After {
			t.Fatalf("After=%v, delta says %v", s.After, want)
		}
		if s.Changed != (s.Before != s.After) {
			t.Fatal("Changed flag wrong")
		}
	})
	if _, err := Run(pop, sched.NewRandom(3), After{N: 2000}, Options{Hooks: []Hook{hook}}); err != nil {
		t.Fatal(err)
	}
}

// --- conditions ---

func TestCountTargetIncrementalMatchesRecompute(t *testing.T) {
	p := core.MustNew(4)
	n := 17
	pop := population.New(p, n)
	tgt, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCountTarget(p.CanonMap(), tgt)
	ct.Init(pop)
	s := sched.NewRandom(7)
	canon := p.CanonMap()
	recompute := func() bool {
		got := make([]int, len(tgt))
		for st, c := range pop.CountsView() {
			got[canon[st]] += c
		}
		for i := range got {
			if got[i] != tgt[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 100000; i++ {
		a, b := s.Next(pop)
		pp, q := pop.State(a), pop.State(b)
		changed := pop.Interact(a, b)
		fired := ct.Step(pop, StepInfo{
			I: a, J: b,
			Before:  protocol.Pair{P: pp, Q: q},
			After:   protocol.Pair{P: pop.State(a), Q: pop.State(b)},
			Changed: changed,
		})
		if fired != recompute() {
			t.Fatalf("incremental detector diverged at step %d", i)
		}
		if fired {
			return // reached stability and detector agreed throughout
		}
	}
	t.Fatal("n=17 k=4 did not stabilize within 100000 interactions")
}

func TestCountsPredicate(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 9)
	gk := p.G(3)
	cond := NewCountsPredicate(func(counts []int) bool { return counts[gk] >= 2 })
	res, err := Run(pop, sched.NewRandom(5), cond, Options{MaxInteractions: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("predicate never fired")
	}
	if pop.Count(gk) < 2 {
		t.Fatalf("stopped with #g3 = %d", pop.Count(gk))
	}
}

func TestQuiescenceOnDeadConfig(t *testing.T) {
	p := core.MustNew(3)
	// g1 g2 g3 g1 g2 g3 with no free agents: no rule applies at all.
	pop := population.FromStates(p, []protocol.State{
		p.G(1), p.G(2), p.G(3), p.G(1), p.G(2), p.G(3),
	})
	q := NewQuiescence(p)
	q.Init(pop)
	if !q.Satisfied() {
		t.Fatal("dead configuration not recognized")
	}
	res, err := Run(pop, sched.NewRandom(1), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Interactions != 0 {
		t.Fatalf("quiescent start not detected: %+v", res)
	}
}

func TestQuiescenceSeesLiveConfig(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 6)
	q := NewQuiescence(p)
	q.Init(pop)
	if q.Satisfied() {
		t.Fatal("all-initial configuration reported quiescent")
	}
}

// n mod k == 1 leaves one free agent flipping I-states forever; the stable
// configuration is NOT quiescent, which is exactly why CountTarget
// canonicalizes initial/initial'. Verify both behaviours.
func TestStableButNotQuiescent(t *testing.T) {
	p := core.MustNew(3)
	pop := population.FromStates(p, []protocol.State{
		p.G(1), p.G(2), p.G(3), p.Initial(),
	})
	if !p.IsStable(pop.Counts()) {
		t.Fatal("signature should be stable for n=4, k=3")
	}
	q := NewQuiescence(p)
	q.Init(pop)
	if q.Satisfied() {
		t.Fatal("bar-flipping configuration reported quiescent")
	}
}

func TestAfterCondition(t *testing.T) {
	p := core.MustNew(2)
	pop := population.New(p, 5)
	res, err := Run(pop, sched.NewRandom(1), After{N: 42}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Interactions != 42 {
		t.Fatalf("After{42}: %+v", res)
	}
}

func TestAnyCombinator(t *testing.T) {
	p := core.MustNew(4)
	pop := population.New(p, 16)
	cond := Any{After{N: 10}, mustTarget(t, p, 16)}
	res, err := Run(pop, sched.NewRandom(1), cond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Interactions != 10 {
		t.Fatalf("Any did not fire at the earlier member: %+v", res)
	}
	if cond.String() == "" {
		t.Error("empty Any.String")
	}
}

func TestResultSpreadEmpty(t *testing.T) {
	if (Result{}).Spread() != 0 {
		t.Error("empty result spread nonzero")
	}
}

// --- hooks ---

func TestSpreadRecorder(t *testing.T) {
	p := core.MustNew(4)
	pop := population.New(p, 16)
	rec := &SpreadRecorder{Interval: 10}
	if _, err := Run(pop, sched.NewRandom(6), After{N: 200}, Options{Hooks: []Hook{rec}}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Samples) != 21 { // initial sample + one per 10 interactions
		t.Fatalf("recorded %d samples, want 21", len(rec.Samples))
	}
}
