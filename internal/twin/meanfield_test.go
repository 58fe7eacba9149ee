package twin

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/harness"
)

// The mean-field rung's in-repo accuracy reference is the exact rung on
// points small enough for it; the sim leg of the contract runs in
// `kpart twin-check` against TWIN_baseline.json. The asserted bound
// here (2%) is far inside the RelErrFluid contract (10%) so regressions
// surface long before the CI gate trips — the measured worst case on
// this grid is under 1%.
func TestMeanFieldTracksExact(t *testing.T) {
	if testing.Short() {
		t.Skip("exact references are slow in -short mode")
	}
	for _, fx := range []struct{ n, k int }{
		{20, 2}, {40, 2}, {30, 3}, {60, 3}, {24, 4}, {32, 4}, {25, 5}, {30, 5},
	} {
		ex, err := NewLumped().Predict(Spec{N: fx.n, K: fx.k})
		if err != nil {
			t.Fatalf("lumped(%d, %d): %v", fx.n, fx.k, err)
		}
		mf, err := NewMeanField().Predict(Spec{N: fx.n, K: fx.k})
		if err != nil {
			t.Fatalf("meanfield(%d, %d): %v", fx.n, fx.k, err)
		}
		if e := relErr(mf.ExpectedInteractions, ex.ExpectedInteractions); e > 0.02 {
			t.Errorf("n=%d k=%d: mean %.1f vs exact %.1f (rel err %.3f)",
				fx.n, fx.k, mf.ExpectedInteractions, ex.ExpectedInteractions, e)
		}
		// Dispersion contract is looser: same order of magnitude.
		if ex.StdInteractions > 0 {
			ratio := mf.StdInteractions / ex.StdInteractions
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("n=%d k=%d: std %.1f vs exact %.1f (ratio %.2f)",
					fx.n, fx.k, mf.StdInteractions, ex.StdInteractions, ratio)
			}
		}
	}
}

// The fluid must conserve the Lemma 1 population weight along the whole
// trajectory; a drift indexing bug once leaked ~12% of the population
// into an unused coordinate and stalled million-agent integrations below
// the handoff level, so the invariant is pinned here at RK4 step
// granularity.
func TestFluidConservesPopulation(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8} {
		n := 10_000
		f := &fluid{k: k, t: float64(n) * float64(n-1)}
		dim := fluidLen(k)
		y := make([]float64, dim)
		y[0] = float64(n)
		out := make([]float64, dim)
		dy := make([]float64, dim)
		k2 := make([]float64, dim)
		k3 := make([]float64, dim)
		k4 := make([]float64, dim)
		tmp := make([]float64, dim)
		weight := func(y []float64) float64 {
			w := y[0] + float64(k)*y[f.cIdx()]
			for i := 2; i <= k-1; i++ {
				w += float64(i) * y[f.mIdx(i)]
			}
			for i := 1; i <= k-2; i++ {
				w += float64(i+1) * y[f.dIdx(i)]
			}
			return w
		}
		h := float64(n) / 4
		for step := 0; step < 400; step++ {
			f.drift(y, dy)
			f.rk4(y, dy, h, out, k2, k3, k4, tmp)
			copy(y, out)
			if w := weight(y); math.Abs(w-float64(n)) > 1e-6*float64(n) {
				t.Fatalf("k=%d step %d: population weight %.6f, want %d", k, step, w, n)
			}
		}
	}
}

// Index layout sanity: F, the m-counts, the d-counts and #gk must tile
// 0..fluidLen−1 without collisions (m3 and d1 once shared a slot).
func TestFluidIndexLayout(t *testing.T) {
	for k := 2; k <= 9; k++ {
		f := &fluid{k: k}
		used := make(map[int]string)
		claim := func(idx int, name string) {
			if prev, ok := used[idx]; ok {
				t.Fatalf("k=%d: index %d claimed by both %s and %s", k, idx, prev, name)
			}
			if idx < 0 || idx >= fluidLen(k) {
				t.Fatalf("k=%d: %s index %d outside [0, %d)", k, name, idx, fluidLen(k))
			}
			used[idx] = name
		}
		claim(0, "F")
		for i := 2; i <= k-1; i++ {
			claim(f.mIdx(i), "m")
		}
		for i := 1; i <= k-2; i++ {
			claim(f.dIdx(i), "d")
		}
		claim(f.cIdx(), "c")
		if len(used) != fluidLen(k) {
			t.Fatalf("k=%d: %d coordinates claimed, want %d", k, len(used), fluidLen(k))
		}
	}
}

// Large populations must answer fast and finite — these are the regimes
// the exact rungs cannot reach, and the regimes where the solver
// pitfalls (catastrophic cancellation in 1−self, Gauss–Seidel
// non-convergence on near-degenerate levels, fluid handoff starvation)
// all lived.
func TestMeanFieldLargePopulations(t *testing.T) {
	for _, fx := range []struct{ n, k int }{
		{100_000, 3}, {1_000_000, 4},
	} {
		pr, err := NewMeanField().Predict(Spec{N: fx.n, K: fx.k})
		if err != nil {
			t.Fatalf("Predict(%d, %d): %v", fx.n, fx.k, err)
		}
		if !(pr.ExpectedInteractions > float64(fx.n)) || math.IsInf(pr.ExpectedInteractions, 0) || math.IsNaN(pr.ExpectedInteractions) {
			t.Errorf("n=%d k=%d: implausible expectation %g", fx.n, fx.k, pr.ExpectedInteractions)
		}
		if pr.StdInteractions < 0 || math.IsNaN(pr.StdInteractions) {
			t.Errorf("n=%d k=%d: bad std %g", fx.n, fx.k, pr.StdInteractions)
		}
	}
}

// An extreme k whose single-level state space exceeds the endgame budget
// must take the documented fluid-only fallback, not fail.
func TestMeanFieldFluidOnlyFallback(t *testing.T) {
	m := NewMeanField()
	pr, err := m.Predict(Spec{N: 500, K: 8})
	if err != nil {
		t.Fatalf("Predict(500, 8): %v", err)
	}
	if pr.States != 0 {
		t.Errorf("fluid-only prediction reports %d endgame states, want 0", pr.States)
	}
	if !(pr.ExpectedInteractions > 0) {
		t.Errorf("implausible expectation %g", pr.ExpectedInteractions)
	}
}

// Two answers to one spec are identical.
func TestMeanFieldDeterministic(t *testing.T) {
	m := NewMeanField()
	a, err := m.Predict(Spec{N: 5000, K: 3, Milestones: false})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Predict(Spec{N: 5000, K: 3, Milestones: false})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpectedInteractions != b.ExpectedInteractions || a.StdInteractions != b.StdInteractions {
		t.Errorf("repeat prediction diverged: %+v vs %+v", a, b)
	}
}

// One MeanField answers from several goroutines at once, as the
// /v1/predict request goroutines share Auto's rungs. Repeated and
// distinct questions, with and without milestones, run side by side on
// an empty shape cache, and most share their shape key with another
// question, so the goroutines miss, build and hit the same keys at once:
// any mutable state shared across calls shows up under the race
// detector, and every answer equals the one a fresh rung gives
// sequentially on its own shape.
func TestMeanFieldConcurrentPredict(t *testing.T) {
	specs := []Spec{
		{N: 200, K: 4}, {N: 960, K: 4, Milestones: true}, {N: 1000, K: 5}, {N: 611, K: 6},
		{N: 300, K: 3, Milestones: true}, {N: 2503, K: 4}, {N: 4242, K: 6, Milestones: true}, {N: 500, K: 8},
		{N: 1004, K: 4}, {N: 2007, K: 4}, {N: 1500, K: 5, Milestones: true}, {N: 4247, K: 6}, {N: 336, K: 3},
	}
	defer shapes.reset()
	want := make([]Prediction, len(specs))
	for i, s := range specs {
		shapes.reset()
		pr, err := NewMeanField().Predict(s)
		if err != nil {
			t.Fatalf("Predict(%+v): %v", s, err)
		}
		want[i] = pr
	}
	shapes.reset()
	m := NewMeanField()
	const workers, rounds = 4, 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range specs {
					i := (j + 3*w) % len(specs) // each worker starts elsewhere
					got, err := m.Predict(specs[i])
					if err != nil {
						t.Errorf("worker %d: Predict(%+v): %v", w, specs[i], err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d round %d: Predict(%+v) = %+v, sequentially %+v", w, r, specs[i], got, want[i])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMeanFieldMilestonesShape(t *testing.T) {
	pr, err := NewMeanField().Predict(Spec{N: 2000, K: 3, Milestones: true})
	if err != nil {
		t.Fatal(err)
	}
	q := 2000 / 3
	if len(pr.Milestones) != q {
		t.Fatalf("got %d milestones, want %d", len(pr.Milestones), q)
	}
	prev := 0.0
	for j, ms := range pr.Milestones {
		if ms < prev {
			t.Fatalf("milestone %d = %g decreases past %g", j+1, ms, prev)
		}
		prev = ms
	}
	if last := pr.Milestones[q-1]; last > pr.ExpectedInteractions+1e-6*pr.ExpectedInteractions {
		t.Errorf("last milestone %g exceeds stabilization %g", last, pr.ExpectedInteractions)
	}
}

// entryDist must yield a normalized distribution over the floor level
// whose mean residual composition tracks the fluid state it smooths.
func TestEntryDistNormalized(t *testing.T) {
	n, k := 2000, 3
	q := n / k
	cStop, ok := chooseEndgame(n, k, q)
	if !ok || cStop == 0 {
		t.Fatalf("chooseEndgame(%d, %d) = %d, %v", n, k, cStop, ok)
	}
	f := &fluid{k: k, t: float64(n) * float64(n-1)}
	fr, err := f.integrate(n, cStop)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := buildEndgame(harness.Proto(k), n, cStop)
	if err != nil {
		t.Fatal(err)
	}
	ids, ws := entryDist(ch, f, fr.y)
	if len(ids) == 0 {
		t.Fatal("entryDist degenerate")
	}
	sum := 0.0
	for i, w := range ws {
		if w < 0 {
			t.Fatalf("negative weight %g", w)
		}
		if lv := int(ch.lvl[ids[i]]) + ch.cMin; lv != cStop {
			t.Fatalf("entry state at level %d, want floor %d", lv, cStop)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g, want 1", sum)
	}
}

func TestCrossValidateSimWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation trials are slow in -short mode")
	}
	bp, err := SimBaseline(Spec{N: 90, K: 3, Milestones: true}, 30, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CompareBaseline(NewMeanField(), bp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RelErr > RelErrFluid {
		t.Errorf("rel err %.3f exceeds the %.2f fluid budget (mf %.1f vs sim %.1f)",
			rep.RelErr, RelErrFluid, rep.Mean, rep.SimMean)
	}
	if rep.Trials != 30 || len(rep.SimMilestones) != 30/1 {
		// 90/3 = 30 milestones; the count doubles as a wiring check.
		t.Errorf("report shape off: trials=%d milestones=%d", rep.Trials, len(rep.SimMilestones))
	}
}

func TestAutoPrefersExactThenFluid(t *testing.T) {
	pr, err := Auto(Spec{N: 12, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Model != "lumped" || pr.Fidelity != FidelityExact {
		t.Errorf("Auto(12, 3) used %s/%s, want lumped/exact", pr.Model, pr.Fidelity)
	}
	pr, err = Auto(Spec{N: 50_000, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Model != "meanfield" || pr.Fidelity != FidelityFluid {
		t.Errorf("Auto(50000, 3) used %s/%s, want meanfield/fluid", pr.Model, pr.Fidelity)
	}
}
