package countsim

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rng"
)

// The Lemma 1 conservation invariant
//
//	#gx = Σ_{p>x} #mp + Σ_{q>=x} #dq + #gk   for all 1 <= x <= k
//
// is fuzzed along full executions of the AGENT engine in
// internal/core/invariant_test.go; this is the same property test for the
// count-based engine, testing/quick style across randomized (n, k, seed).
// The count engine reaches configurations through a completely different
// code path (geometric null-run skipping plus incremental weight
// bookkeeping), so an apply/move bug here would not be caught by the
// agent-engine tests — the invariant must hold after EVERY productive
// step it takes.
func TestCountEngineInvariantAlongExecutions(t *testing.T) {
	f := func(seed uint64, nRaw uint8, kRaw uint8) bool {
		n := 3 + int(nRaw)%38 // 3..40
		k := 2 + int(kRaw)%7  // 2..8
		p := core.MustNew(k)
		s, err := New(p, n, rng.StreamSeed(seed, uint64(n), uint64(k)))
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		stable, err := p.StableChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		// Walk productive steps directly (not RunUntil) so the check runs
		// after every single application, with no predicate in between.
		const maxSteps = 20000
		for step := 0; step < maxSteps; step++ {
			if _, _, err := s.Step(); err != nil {
				if errors.Is(err, ErrDead) {
					break
				}
				t.Fatalf("n=%d k=%d step %d: %v", n, k, step, err)
			}
			if err := p.CheckInvariant(s.CountsView()); err != nil {
				t.Errorf("n=%d k=%d seed=%#x: invariant violated after productive step %d: %v",
					n, k, seed, step, err)
				return false
			}
			if stable(s.CountsView()) {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The invariant also survives RunUntilCtx's cancellation path: a run cut
// off mid-flight leaves a configuration that still satisfies Lemma 1
// (cancellation may not tear a half-applied transition).
func TestCountEngineInvariantAfterCancel(t *testing.T) {
	p := core.MustNew(5)
	s, err := New(p, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	pred := func([]int) bool {
		steps++
		if steps == 600 {
			cancel() // fires mid-run; next poll aborts
		}
		return false
	}
	_, err = s.RunUntilCtx(ctx, pred, 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := p.CheckInvariant(s.CountsView()); err != nil {
		t.Fatalf("invariant violated after cancellation: %v", err)
	}
	if s.Productive() == 0 {
		t.Fatal("cancelled before any progress")
	}
}

// A nil context must behave exactly like RunUntil (the hot path carries
// no polling cost and no behavior change).
func TestRunUntilCtxNilMatchesRunUntil(t *testing.T) {
	p := core.MustNew(4)
	run := func(viaCtx bool) (uint64, uint64) {
		s, err := New(p, 60, 99)
		if err != nil {
			t.Fatal(err)
		}
		stable, err := p.StableChecker(60)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if viaCtx {
			ok, err = s.RunUntilCtx(nil, stable, 1<<40)
		} else {
			ok, err = s.RunUntil(stable, 1<<40)
		}
		if err != nil || !ok {
			t.Fatalf("viaCtx=%t: ok=%t err=%v", viaCtx, ok, err)
		}
		return s.Interactions(), s.Productive()
	}
	i1, p1 := run(false)
	i2, p2 := run(true)
	if i1 != i2 || p1 != p2 {
		t.Fatalf("nil-ctx run diverged: %d/%d vs %d/%d", i1, p1, i2, p2)
	}
}
