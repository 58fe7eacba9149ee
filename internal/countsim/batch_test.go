package countsim

// The batched engine's test architecture, mirroring the ISSUE 7 contract:
//
//   - Differential: batched and sequential engines reach the same stable
//     configuration across an (n, k, batch) grid; matching-mode boundary
//     configurations are members of the exact reachable set; the
//     final-approach fallback replays the sequential engine byte for byte.
//   - Statistical: chi-square goodness-of-fit of matching-mode per-pair
//     draws against the exact E[D_ab] = m·c_a·(c_b−[a=b])/(n(n−1)); mean
//     interactions-to-stability of matching Size=1 against the exact
//     Markov expectation; adaptive aggregate mean against the sequential
//     engine within the documented window-inflation bound.
//   - Property/fuzz: counts stay non-negative and sum to n, and the
//     null-weight audit reconciles, for arbitrary count vectors and batch
//     sizes.
//
// Every test is seeded, so the statistical gates fail deterministically.

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/markov"
	"repro/internal/protocols/interval"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestBatchValidation(t *testing.T) {
	p := core.MustNew(3)
	if _, err := NewBatch(p, 10, 1, BatchOptions{Size: 6}); err == nil {
		t.Error("Size 6 with n=10 violates 2·size <= n; want error")
	}
	if _, err := NewBatch(p, 10, 1, BatchOptions{Size: 1 << 63}); err == nil {
		t.Error("Size 2⁶³ with n=10 violates 2·size <= n (2·size wraps to 0); want error")
	}
	if _, err := NewBatch(p, 1, 1, BatchOptions{}); err == nil {
		t.Error("n=1 must be rejected")
	}
	if _, err := NewBatch(p, 10, 1, BatchOptions{Size: 5}); err != nil {
		t.Errorf("Size 5 with n=10 is legal: %v", err)
	}
}

// The adaptive classifier on Algorithm 1: rules 3/4 (settled agent toggles
// a free agent's bar) are the flip cells, everything else productive is a
// progress cell, and the two free states form the single toggle orbit.
func TestBatchClassifyKPartition(t *testing.T) {
	p := core.MustNew(4)
	b, err := NewBatch(p, 20, 1, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.orbits) != 1 {
		t.Fatalf("orbits = %v, want exactly the free-agent bar orbit", b.orbits)
	}
	o := b.orbits[0]
	if o[0] != int(p.Initial()) || o[1] != int(p.InitialBar()) {
		t.Fatalf("orbit %v, want {initial, initialBar}", o)
	}
	if len(b.flipCells) == 0 {
		t.Fatal("no flip cells classified; rules 3/4 should aggregate")
	}
	if len(b.progCells) == 0 {
		t.Fatal("no progress cells classified")
	}
	// Flip and progress cells partition the non-null cells.
	S := b.sim.S
	nonNull := 0
	for i := 0; i < S*S; i++ {
		if !b.sim.nullPair[i] {
			nonNull++
		}
	}
	if got := len(b.flipCells) + len(b.progCells); got != nonNull {
		t.Fatalf("flip %d + progress %d != non-null %d", len(b.flipCells), len(b.progCells), nonNull)
	}
}

// Matching mode applies only disjoint pairs, so every boundary
// configuration must be sequentially reachable — membership in the exact
// reachable set built by internal/explore.
func TestBatchMatchingStaysInReachableSet(t *testing.T) {
	for _, cse := range []struct {
		n, k int
		size uint64
	}{{8, 2, 2}, {8, 3, 3}, {9, 3, 2}} {
		p := core.MustNew(cse.k)
		g, err := explore.Build(p, cse.n)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 5; seed++ {
			b, err := NewBatch(p, cse.n, seed, BatchOptions{Size: cse.size})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if err := b.Step(); err != nil {
					if errors.Is(err, ErrDead) {
						break
					}
					t.Fatal(err)
				}
				if _, ok := g.Lookup(explore.Config{Counts: b.Counts()}); !ok {
					t.Fatalf("n=%d k=%d size=%d seed=%d batch %d: configuration %v is not sequentially reachable",
						cse.n, cse.k, cse.size, seed, i, b.Counts())
				}
				if p.IsStable(b.CountsView()) {
					break
				}
			}
		}
	}
}

// sortedSizes canonicalizes a group-size vector for comparison.
func sortedSizes(sizes []int) []int {
	out := append([]int(nil), sizes...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// The differential grid: for every (n, k, batch mode), the batched engine
// must stabilize to the same (unique) stable group-size signature the
// sequential engine stabilizes to.
func TestBatchDifferentialStableConfiguration(t *testing.T) {
	type mode struct {
		name string
		opts BatchOptions
	}
	modes := []mode{
		{"adaptive", BatchOptions{}},
		{"adaptive-forced", BatchOptions{SeqThreshold: -1}},
		{"matching-1", BatchOptions{Size: 1}},
		{"matching-3", BatchOptions{Size: 3}},
	}
	for _, cse := range []struct{ n, k int }{{10, 2}, {12, 3}, {16, 4}, {17, 4}} {
		p := core.MustNew(cse.k)
		want := sortedSizes(p.StableGroupSizes(cse.n))
		for seed := uint64(0); seed < 4; seed++ {
			// Sequential reference.
			s, err := New(p, cse.n, rng.StreamSeed(0x5e9, uint64(cse.n), uint64(cse.k), seed))
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := s.RunUntil(p.IsStable, 1<<40); err != nil || !ok {
				t.Fatalf("sequential n=%d k=%d seed=%d: ok=%v err=%v", cse.n, cse.k, seed, ok, err)
			}
			if got := sortedSizes(p.GroupSizesFromCounts(s.CountsView())); !reflect.DeepEqual(got, want) {
				t.Fatalf("sequential stable sizes %v, want %v", got, want)
			}
			for _, m := range modes {
				opts := m.opts
				opts.Check = p.CheckInvariant
				b, err := NewBatch(p, cse.n, rng.StreamSeed(0xba7c4, uint64(cse.n), uint64(cse.k), seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				ok, err := b.RunUntil(p.IsStable, 1<<40)
				if err != nil || !ok {
					t.Fatalf("%s n=%d k=%d seed=%d: ok=%v err=%v", m.name, cse.n, cse.k, seed, ok, err)
				}
				if got := sortedSizes(p.GroupSizesFromCounts(b.CountsView())); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d k=%d seed=%d: stable sizes %v, want %v (sequential agrees with %v)",
						m.name, cse.n, cse.k, seed, got, want, want)
				}
			}
		}
	}
}

// In the final-approach regime the adaptive engine falls back to exact
// sequential steps that consume the SAME stream the sequential engine
// would: at small n the two engines are byte-identical, step for step.
func TestBatchFallbackMatchesSequentialExactly(t *testing.T) {
	const n, k, seed = 60, 3, 0xfa11
	p := core.MustNew(k)
	s, err := New(p, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(p, n, seed, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		if p.IsStable(s.CountsView()) {
			if !p.IsStable(b.CountsView()) {
				t.Fatal("sequential stable, batch not")
			}
			if b.Batches() != 0 {
				t.Fatalf("run this small must be all fallback steps, saw %d bulk batches", b.Batches())
			}
			if b.SeqSteps() == 0 {
				t.Fatal("no fallback steps recorded")
			}
			return
		}
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Counts(), b.Counts()) {
			t.Fatalf("step %d: counts diverged: sequential %v, batch %v", i, s.Counts(), b.Counts())
		}
		if s.Interactions() != b.Interactions() {
			t.Fatalf("step %d: interactions diverged: %d vs %d", i, s.Interactions(), b.Interactions())
		}
	}
	t.Fatal("never stabilized")
}

// Matching mode at Size 1 reproduces the sequential law exactly, so its
// mean interactions-to-stability must sit on the exact Markov expectation.
func TestBatchMatchingSizeOneMatchesExactExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution check over many trials; skipped in -short runs")
	}
	const n, k, trials = 6, 3, 12000
	p := core.MustNew(k)
	exact, err := markov.ExpectedStabilization(p, n)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		b, err := NewBatch(p, n, rng.StreamSeed(0xba7c1, uint64(i)), BatchOptions{Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := b.RunUntil(p.IsStable, 1<<40)
		if err != nil || !ok {
			t.Fatalf("trial %d: ok=%v err=%v", i, ok, err)
		}
		x := float64(b.Interactions())
		sum += x
		sumsq += x * x
	}
	mean := sum / trials
	se := math.Sqrt(((sumsq - sum*sum/trials) / (trials - 1)) / trials)
	if diff := math.Abs(mean - exact); diff > 4*se+1e-9 {
		t.Errorf("matching Size=1 mean %.3f vs exact %.3f (diff %.3f > 4·SE %.3f)", mean, exact, diff, 4*se)
	}
}

// Chi-square goodness-of-fit of the matching sampler's per-pair draws:
// over R independent single batches from a frozen configuration, the
// total draws on ordered cell (a, b) must fit R·m·c_a·(c_b−[a=b])/(n(n−1))
// — the exact marginal the package doc promises.
func TestBatchMatchingPairDrawsChiSquare(t *testing.T) {
	const k, n, m, replicates = 3, 12, 3, 6000
	p := core.MustNew(k)
	// A generic mid-execution configuration, reached deterministically.
	warm, err := New(p, n, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := warm.Step(); err != nil {
			t.Fatal(err)
		}
	}
	counts := warm.Counts()
	S := p.NumStates()
	W := float64(n) * float64(n-1)
	obs := make([]float64, S*S)
	for r := uint64(0); r < replicates; r++ {
		b, err := BatchFromCounts(p, counts, rng.StreamSeed(0xc412, r), BatchOptions{Size: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		draws := b.PairDraws()
		var total int64
		for i, d := range draws {
			obs[i] += float64(d)
			total += d
		}
		if total != m {
			t.Fatalf("replicate %d: %d pair draws, want %d", r, total, m)
		}
	}
	exp := make([]float64, S*S)
	for a := 0; a < S; a++ {
		for q := 0; q < S; q++ {
			cb := float64(counts[q])
			if q == a {
				cb--
			}
			if cb < 0 {
				cb = 0
			}
			exp[a*S+q] = replicates * m * float64(counts[a]) * cb / W
		}
	}
	// Pool cells below expectation 5 (chi-square asymptotics).
	var pObs, pExp []float64
	var ro, re float64
	for i := range exp {
		ro += obs[i]
		re += exp[i]
		if re >= 5 {
			pObs = append(pObs, ro)
			pExp = append(pExp, re)
			ro, re = 0, 0
		}
	}
	if re > 0 {
		pObs[len(pObs)-1] += ro
		pExp[len(pExp)-1] += re
	}
	stat, used, err := stats.ChiSquare(pObs, pExp)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(used - 1); stat > crit {
		t.Errorf("pair-draw chi-square %.2f exceeds 99.9%% critical %.2f at df=%d", stat, crit, used-1)
	}
}

// The adaptive aggregate mode's interactions-to-stability must track the
// sequential engine's within the documented window-inflation bound
// (~13% expected overshoot in the sparse regime, plus sampling noise).
func TestBatchAdaptiveMeanTracksSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison over dozens of full runs; skipped in -short runs")
	}
	const n, k, trials = 1000, 3, 40
	p := core.MustNew(k)
	meanOf := func(run func(seed uint64) uint64) float64 {
		var sum float64
		for i := uint64(0); i < trials; i++ {
			sum += float64(run(i))
		}
		return sum / trials
	}
	seqMean := meanOf(func(seed uint64) uint64 {
		s, err := New(p, n, rng.StreamSeed(0xada1, seed))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := s.RunUntil(p.IsStable, 1<<50); err != nil || !ok {
			t.Fatalf("sequential seed %d: ok=%v err=%v", seed, ok, err)
		}
		return s.Interactions()
	})
	batMean := meanOf(func(seed uint64) uint64 {
		b, err := NewBatch(p, n, rng.StreamSeed(0xada2, seed), BatchOptions{SeqThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := b.RunUntil(p.IsStable, 1<<50); err != nil || !ok {
			t.Fatalf("batch seed %d: ok=%v err=%v", seed, ok, err)
		}
		return b.Interactions()
	})
	ratio := batMean / seqMean
	if ratio < 0.70 || ratio > 1.45 {
		t.Errorf("adaptive mean %.0f vs sequential mean %.0f: ratio %.3f outside the accuracy contract [0.70, 1.45]",
			batMean, seqMean, ratio)
	}
}

// Seed stability: a fixed (seed, mode) pins the entire boundary trajectory
// — two runs must agree on every Counts() snapshot and every counter.
// The Makefile race pass runs this under -race as well.
func TestBatchSeedStabilityTrajectory(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts BatchOptions
	}{
		{"adaptive", BatchOptions{SeqThreshold: -1}},
		{"matching", BatchOptions{Size: 8}},
	} {
		p := core.MustNew(4)
		run := func() (traj [][]int, inter, prod uint64) {
			b, err := NewBatch(p, 500, 0x5eed, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				if err := b.Step(); err != nil {
					t.Fatal(err)
				}
				traj = append(traj, b.Counts())
				if p.IsStable(b.CountsView()) {
					break
				}
			}
			return traj, b.Interactions(), b.Productive()
		}
		t1, i1, p1 := run()
		t2, i2, p2 := run()
		if i1 != i2 || p1 != p2 {
			t.Fatalf("%s: counters diverged: (%d,%d) vs (%d,%d)", mode.name, i1, p1, i2, p2)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("%s: boundary trajectories diverged across identical runs", mode.name)
		}
	}
}

// Pinned adaptive-mode trajectories: (Interactions, Productive, Batches,
// SeqSteps) to stability on the fig6 seeds, at the Figure 6 point (almost
// all final-approach steps) and at n = 20000, k = 4 (where the engine
// switches between aggregate batches and the fallback many times).
func TestBatchTrajectoryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("eleven full runs to stability; skipped in -short runs")
	}
	for _, cse := range []struct {
		n, k int
		want [][4]uint64
	}{
		{960, 8, [][4]uint64{
			{13463125, 114947, 743, 66296}, {3499278, 92563, 125, 83053},
			{6861724, 102409, 334, 79274}, {13473437, 117392, 561, 80701},
			{2838240, 84592, 168, 74921}, {13843407, 128225, 655, 88618},
			{8683745, 100669, 417, 72416}, {2598246, 77949, 65, 72388},
		}},
		{20000, 4, [][4]uint64{
			{587152457, 455889, 676, 30622}, {437301509, 469261, 885, 26378},
			{463658950, 460654, 714, 33667},
		}},
	} {
		p := core.MustNew(cse.k)
		for i, want := range cse.want {
			b, err := NewBatch(p, cse.n, rng.StreamSeed(1, 0xf16, uint64(i)), BatchOptions{Check: p.CheckInvariant})
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := b.RunUntil(p.IsStable, 1<<50); err != nil || !ok {
				t.Fatalf("n=%d k=%d seed %d: ok=%v err=%v", cse.n, cse.k, i, ok, err)
			}
			got := [4]uint64{b.Interactions(), b.Productive(), b.Batches(), b.SeqSteps()}
			if got != want {
				t.Errorf("n=%d k=%d seed %d: (interactions, productive, batches, seqSteps) = %v, want %v",
					cse.n, cse.k, i, got, want)
			}
		}
	}
}

// recomputeShadow derives from scratch, in O(S²), what the final-approach
// shadow keeps incrementally: the null, flip and progress weights of the
// live counts, each state's number of live progress cells, and the agents
// in states whose diagonal cell is null.
func recomputeShadow(b *Batch) (w [3]int64, live []int64, diag int64) {
	s := b.sim
	S := s.S
	live = make([]int64, S)
	for a := 0; a < S; a++ {
		if s.nullPair[a*S+a] {
			diag += int64(s.counts[a])
		}
		for q := 0; q < S; q++ {
			ca, cq := int64(s.counts[a]), int64(s.counts[q])
			if a == q {
				cq--
			}
			cls := b.cellClass[a*S+q]
			w[cls] += ca * cq
			if cls == classProg && ca > 0 && cq > 0 {
				live[a]++
				live[q]++
			}
		}
	}
	return w, live, diag
}

// Property test: over random count vectors and protocols, and random runs
// of final-approach steps, the shadow's class weights, live-cell counts,
// null-diagonal count and count copy equal an O(S²) recompute after every
// step, its window-policy inputs equal a recompute from its live cells,
// and its null weight equals auditNullWeight. Half the runs force the fallback on every
// step (a SeqThreshold no window reaches); the rest keep the default
// cutoff, so larger vectors move between aggregate and fallback mode.
func TestShadowMatchesRecompute(t *testing.T) {
	prop := func(raw [22]uint16, kSel uint8, forced bool, seed uint64) bool {
		p := core.MustNew(3 + int(kSel)%6)
		S := p.NumStates()
		counts := make([]int, S)
		n := 0
		for i := range counts {
			counts[i] = int(raw[i] % 300)
			n += counts[i]
		}
		if n < 2 {
			counts[0] += 2
		}
		opts := BatchOptions{}
		if forced {
			opts.SeqThreshold = math.MaxInt64
		}
		b, err := BatchFromCounts(p, counts, seed, opts)
		if err != nil {
			t.Logf("construction: %v", err)
			return false
		}
		for i := 0; i < 200; i++ {
			if err := b.Step(); err != nil {
				if errors.Is(err, ErrDead) {
					return true
				}
				t.Logf("step %d: %v", i, err)
				return false
			}
			if forced && !b.shadowOn {
				t.Logf("step %d: forced fallback left the shadow closed", i)
				return false
			}
			if !b.shadowOn {
				continue
			}
			w, live, diag := recomputeShadow(b)
			if b.shW != w || b.shDiag != diag {
				t.Logf("step %d: shadow weights %v diagonal %d, recomputed %v and %d", i, b.shW, b.shDiag, w, diag)
				return false
			}
			if got := b.sim.auditNullWeight(); w[classNull] != got {
				t.Logf("step %d: recomputed null %d, auditNullWeight %d", i, w[classNull], got)
				return false
			}
			if pA, cmax := b.participation(); b.shPA != pA || b.shCmax != cmax {
				t.Logf("step %d: shadow pA %d cmax %d, recomputed %d and %d", i, b.shPA, b.shCmax, pA, cmax)
				return false
			}
			for x := range live {
				if b.shLive[x] != live[x] || b.shCounts[x] != int64(b.sim.counts[x]) {
					t.Logf("step %d state %d: shadow live %d count %d, recomputed live %d count %d",
						i, x, b.shLive[x], b.shCounts[x], live[x], b.sim.counts[x])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// fig6FinalApproach returns an adaptive engine at the Figure 6 point (n =
// 960, k = 8) that has taken 2000 final-approach steps.
func fig6FinalApproach(t *testing.T) *Batch {
	t.Helper()
	p := core.MustNew(8)
	b, err := NewBatch(p, 960, rng.StreamSeed(1, 0xf16, 0), BatchOptions{Check: p.CheckInvariant})
	if err != nil {
		t.Fatal(err)
	}
	for b.SeqSteps() < 2000 {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !b.shadowOn {
		t.Fatal("engine is not in the final approach")
	}
	return b
}

// The O(S) final-approach audit is as strong as the O(S²) one it replaced:
// corrupting the incremental null weight, or one row or column sum it is
// maintained from, fails the very next Step with the null-weight audit.
func TestShadowAuditCatchesMutation(t *testing.T) {
	for _, mut := range []struct {
		name  string
		apply func(s *Sim, x int)
	}{
		{"nullW", func(s *Sim, _ int) { s.nullW++ }},
		{"rowSum", func(s *Sim, x int) { s.rowSum[x]++ }},
		{"colSum", func(s *Sim, x int) { s.colSum[x]-- }},
	} {
		b := fig6FinalApproach(t)
		x := 0 // a state with agents in it, so its row and column sums count
		for i, c := range b.sim.counts {
			if c > b.sim.counts[x] {
				x = i
			}
		}
		mut.apply(b.sim, x)
		if err := b.Step(); err == nil || !strings.Contains(err.Error(), "null-weight audit failed") {
			t.Errorf("%s bumped: next Step returned %v, want the null-weight audit failure", mut.name, err)
		}
	}
}

// A final-approach step allocates nothing: the shadow is allocated once,
// when the engine first falls back.
func TestFinalApproachStepAllocs(t *testing.T) {
	b := fig6FinalApproach(t)
	seq := b.SeqSteps()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("final-approach Step allocates %v times per call, want 0", allocs)
	}
	if got := b.SeqSteps() - seq; got != 1001 {
		t.Errorf("%d of 1001 calls were final-approach steps", got)
	}
}

// BenchmarkFig6Step times single steps at the Figure 6 point (n = 960,
// k = 8): Sim.Step on the count engine, and on the batch engine a
// final-approach Batch.Step with its audits and the Check hook, so the
// two read as the batch engine's per-step overhead. A run that
// stabilizes is replaced, off the clock, by one on the next seed.
func BenchmarkFig6Step(b *testing.B) {
	p := core.MustNew(8)
	stable, err := p.StableChecker(960)
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []string{"count", "batch"} {
		b.Run(engine, func(b *testing.B) {
			var (
				step   func() error
				counts []int
				seed   uint64
			)
			start := func() {
				seed++
				if engine == "count" {
					s, err := New(p, 960, rng.StreamSeed(1, 0xf16, seed))
					if err != nil {
						b.Fatal(err)
					}
					step = func() error { _, _, err := s.Step(); return err }
					counts = s.CountsView()
					return
				}
				e, err := NewBatch(p, 960, rng.StreamSeed(1, 0xf16, seed), BatchOptions{Check: p.CheckInvariant})
				if err != nil {
					b.Fatal(err)
				}
				for e.SeqSteps() == 0 {
					if err := e.Step(); err != nil {
						b.Fatal(err)
					}
				}
				step, counts = e.Step, e.CountsView()
			}
			start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if stable(counts) {
					b.StopTimer()
					start()
					b.StartTimer()
				}
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The boundary Check hook runs at every boundary and its error aborts.
func TestBatchCheckHook(t *testing.T) {
	p := core.MustNew(3)
	calls := 0
	b, err := NewBatch(p, 200, 9, BatchOptions{
		SeqThreshold: -1,
		Check: func(counts []int) error {
			calls++
			return p.CheckInvariant(counts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := b.RunUntil(p.IsStable, 1<<50); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if calls == 0 {
		t.Fatal("Check hook never ran")
	}
	boom := errors.New("boom")
	b2, err := NewBatch(p, 200, 9, BatchOptions{Check: func([]int) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Step(); !errors.Is(err, boom) {
		t.Fatalf("Check error not propagated: %v", err)
	}
}

// A quiescent configuration is ErrDead in both modes.
func TestBatchDeadConfiguration(t *testing.T) {
	p := interval.MustNew(4)
	counts := make([]int, p.NumStates())
	counts[p.Interval(1, 1)] = 3
	counts[p.Interval(2, 2)] = 3
	for _, opts := range []BatchOptions{{}, {Size: 2}} {
		b, err := BatchFromCounts(p, counts, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); !errors.Is(err, ErrDead) {
			t.Fatalf("opts %+v: got %v, want ErrDead", opts, err)
		}
		ok, err := b.RunUntil(func([]int) bool { return false }, 100)
		if err != nil || ok {
			t.Fatalf("RunUntil on dead config: %v %v", err, ok)
		}
	}
}

// Property test: for arbitrary count vectors, batch sizes and seeds, a
// few steps of either mode keep counts non-negative and summing to n,
// with the incremental null weight reconciling against the O(S²) audit.
func TestBatchQuickProperties(t *testing.T) {
	p := core.MustNew(3)
	S := p.NumStates()
	prop := func(raw [7]uint16, sizeSel uint8, forced bool, seed uint64) bool {
		counts := make([]int, S)
		n := 0
		for i := range counts {
			counts[i] = int(raw[i] % 40)
			n += counts[i]
		}
		if n < 2 {
			counts[0] += 2
			n += 2
		}
		opts := BatchOptions{}
		if sizeSel%3 != 0 {
			opts.Size = uint64(sizeSel) % uint64(n/2+1)
		} else if forced {
			opts.SeqThreshold = -1
		}
		b, err := BatchFromCounts(p, counts, seed, opts)
		if err != nil {
			// Only the documented size bound may reject.
			return 2*opts.Size > uint64(n)
		}
		for i := 0; i < 4; i++ {
			if err := b.Step(); err != nil {
				if errors.Is(err, ErrDead) {
					break
				}
				t.Logf("step error: %v", err)
				return false
			}
			sum := 0
			for _, c := range b.CountsView() {
				if c < 0 {
					t.Logf("negative count in %v", b.CountsView())
					return false
				}
				sum += c
			}
			if sum != n {
				t.Logf("counts sum %d, want %d", sum, n)
				return false
			}
			if got := b.sim.auditNullWeight(); got != b.sim.nullW {
				t.Logf("null weight drifted: incremental %d, audit %d", b.sim.nullW, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchApply feeds arbitrary count vectors, sizes and seeds through
// batch application: construction either fails cleanly or a handful of
// steps preserve every invariant without panicking.
func FuzzBatchApply(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 0, 0, 0, 0, 7}, uint64(1))
	f.Add([]byte{3, 3, 2, 1, 0, 4, 2, 2, 0}, uint64(2))
	f.Add([]byte{0, 50, 0, 9, 9, 9, 9, 1, 255}, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 2 {
			return
		}
		k := 2 + int(data[0])%3
		p := core.MustNew(k)
		S := p.NumStates()
		counts := make([]int, S)
		n := 0
		for i := 0; i < S; i++ {
			var v byte
			if 1+i < len(data) {
				v = data[1+i]
			}
			counts[i] = int(v % 61)
			n += counts[i]
		}
		var opts BatchOptions
		switch data[len(data)-1] % 3 {
		case 0:
			opts.SeqThreshold = -1
		case 1:
			opts.Size = uint64(data[len(data)-1]) % 16
		}
		b, err := BatchFromCounts(p, counts, seed, opts)
		if err != nil {
			return // invalid inputs must be rejected, not applied
		}
		for i := 0; i < 3; i++ {
			if err := b.Step(); err != nil {
				if errors.Is(err, ErrDead) {
					return
				}
				t.Fatalf("step %d: %v", i, err)
			}
			sum := 0
			for _, c := range b.CountsView() {
				if c < 0 {
					t.Fatalf("negative count in %v", b.CountsView())
				}
				sum += c
			}
			if sum != n {
				t.Fatalf("counts sum %d, want %d", sum, n)
			}
			if got := b.sim.auditNullWeight(); got != b.sim.nullW {
				t.Fatalf("null weight drifted: incremental %d, audit %d", b.sim.nullW, got)
			}
		}
	})
}
