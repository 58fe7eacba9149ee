package core_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestCheckInvariantInitialConfig(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		p := core.MustNew(k)
		counts := make([]int, p.NumStates())
		counts[p.Initial()] = 10
		if err := p.CheckInvariant(counts); err != nil {
			t.Errorf("k=%d: initial config violates invariant: %v", k, err)
		}
	}
}

func TestCheckInvariantRejectsWrongLength(t *testing.T) {
	p := core.MustNew(4)
	if err := p.CheckInvariant(make([]int, 3)); err == nil {
		t.Error("short counts accepted")
	}
}

// checkInvariantByAccessors is CheckInvariant written with the
// range-checked G, M and D accessors: the reference the direct-indexing
// form must match, error text included.
func checkInvariantByAccessors(p *core.Protocol, counts []int) error {
	if len(counts) != p.NumStates() {
		return fmt.Errorf("core: counts has %d entries, protocol has %d states", len(counts), p.NumStates())
	}
	k := p.K()
	gk := counts[p.G(k)]
	mSuffix, dSuffix := 0, 0
	for x := k; x >= 1; x-- {
		if x+1 <= k-1 {
			mSuffix += counts[p.M(x+1)]
		}
		if x <= k-2 {
			dSuffix += counts[p.D(x)]
		}
		want := mSuffix + dSuffix + gk
		if got := counts[p.G(x)]; got != want {
			return fmt.Errorf("core: Lemma 1 violated at x=%d: #g%d=%d, want %d (mSuffix=%d dSuffix=%d #gk=%d)",
				x, x, got, want, mSuffix, dSuffix, gk)
		}
	}
	return nil
}

// CheckInvariant returns what the accessor form returns, error text
// included, on random count vectors for k = 2…12: vectors that satisfy
// Lemma 1 by construction, the same with one entry changed, and vectors
// of the wrong length.
func TestCheckInvariantMatchesAccessorForm(t *testing.T) {
	r := rng.New(0x1e44a1)
	for k := 2; k <= 12; k++ {
		p := core.MustNew(k)
		S := p.NumStates()
		violations := 0
		const trials = 400
		for trial := 0; trial < trials; trial++ {
			counts := make([]int, S)
			counts[p.Initial()] = int(r.Uint64n(20))
			counts[p.InitialBar()] = int(r.Uint64n(20))
			for i := 2; i <= k-1; i++ {
				counts[p.M(i)] = int(r.Uint64n(4))
			}
			for i := 1; i <= k-2; i++ {
				counts[p.D(i)] = int(r.Uint64n(4))
			}
			counts[p.G(k)] = int(r.Uint64n(10))
			mSuffix, dSuffix := 0, 0
			for x := k - 1; x >= 1; x-- {
				if x+1 <= k-1 {
					mSuffix += counts[p.M(x+1)]
				}
				if x <= k-2 {
					dSuffix += counts[p.D(x)]
				}
				counts[p.G(x)] = mSuffix + dSuffix + counts[p.G(k)]
			}
			if trial%4 != 0 {
				counts[r.Uint64n(uint64(S))] += int(r.Uint64n(7)) - 3
			}
			got, want := p.CheckInvariant(counts), checkInvariantByAccessors(p, counts)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("k=%d counts %v: CheckInvariant %v, accessor form %v", k, counts, got, want)
			}
			if got != nil {
				violations++
			}
		}
		if violations == 0 || violations == trials {
			t.Errorf("k=%d: %d of %d vectors violate Lemma 1; want both verdicts", k, violations, trials)
		}
		for _, n := range []int{S - 1, S + 1} {
			counts := make([]int, n)
			if got, want := p.CheckInvariant(counts), checkInvariantByAccessors(p, counts); got == nil || got.Error() != want.Error() {
				t.Errorf("k=%d length %d: CheckInvariant %v, accessor form %v", k, n, got, want)
			}
		}
	}
}

func TestCheckInvariantDetectsViolation(t *testing.T) {
	p := core.MustNew(4)
	counts := make([]int, p.NumStates())
	// One m3 with no corresponding g1/g2: violates Lemma 1 at x=1 and 2.
	counts[p.M(3)] = 1
	counts[p.Initial()] = 5
	if err := p.CheckInvariant(counts); err == nil {
		t.Error("invariant violation not detected")
	}
	// Repair it: m3 requires one g1 and one g2.
	counts[p.G(1)] = 1
	counts[p.G(2)] = 1
	if err := p.CheckInvariant(counts); err != nil {
		t.Errorf("repaired config still flagged: %v", err)
	}
}

// Lemma 1 must be preserved by EVERY single transition from ANY
// invariant-satisfying configuration — the inductive step of the paper's
// proof, fuzzed with testing/quick. We synthesize a random reachable-shaped
// configuration by construction (choosing #mp, #dq, #gk freely and deriving
// the #gx the invariant forces), then apply one random rule.
func TestInvariantInductiveStep(t *testing.T) {
	k := 5
	p := core.MustNew(k)
	r := rng.New(424242)

	build := func() []int {
		counts := make([]int, p.NumStates())
		counts[p.Initial()] = r.Intn(4)
		counts[p.InitialBar()] = r.Intn(4)
		for i := 2; i <= k-1; i++ {
			counts[p.M(i)] = r.Intn(3)
		}
		for i := 1; i <= k-2; i++ {
			counts[p.D(i)] = r.Intn(3)
		}
		gk := r.Intn(3)
		counts[p.G(k)] = gk
		for x := 1; x <= k-1; x++ {
			c := gk
			for q := x + 1; q <= k-1; q++ {
				c += counts[p.M(q)]
			}
			for q := x; q <= k-2; q++ {
				c += counts[p.D(q)]
			}
			counts[p.G(x)] = c
		}
		return counts
	}

	f := func(seed uint64) bool {
		counts := build()
		if err := p.CheckInvariant(counts); err != nil {
			t.Fatalf("constructed config violates invariant: %v", err)
		}
		// Pick a random applicable ordered pair of present states.
		rr := rng.New(seed)
		var present []protocol.State
		for s, c := range counts {
			for i := 0; i < c; i++ {
				present = append(present, protocol.State(s))
			}
		}
		if len(present) < 2 {
			return true
		}
		i, j := rr.Pair(len(present))
		a, b := present[i], present[j]
		out, _ := p.Delta(a, b)
		counts[a]--
		counts[b]--
		counts[out.P]++
		counts[out.Q]++
		return p.CheckInvariant(counts) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// lemma1Check checks Lemma 1 on every productive step and keeps the
// first violation. A null step leaves the counts as they were, so it
// carries the IgnoresNull marker and the run keeps the fused loop.
type lemma1Check struct {
	p   *core.Protocol
	err error
}

func (c *lemma1Check) Init(pop *population.Population) {
	c.err = c.p.CheckInvariant(pop.CountsView())
}

func (c *lemma1Check) OnStep(pop *population.Population, s sim.StepInfo) {
	if s.Changed && c.err == nil {
		if err := c.p.CheckInvariant(pop.CountsView()); err != nil {
			c.err = fmt.Errorf("after %d interactions: %w", pop.Interactions(), err)
		}
	}
}

func (c *lemma1Check) IgnoresNull() {}

// Lemma 1 along full random executions, checked after every productive
// step, across a grid of (n, k).
func TestInvariantAlongExecutions(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6} {
		for _, n := range []int{3, 7, 12, 25} {
			p := core.MustNew(k)
			pop := population.New(p, n)
			target, err := p.TargetCounts(n)
			if err != nil {
				t.Fatal(err)
			}
			stop := sim.NewCountTarget(p.CanonMap(), target)
			check := &lemma1Check{p: p}
			res, err := sim.Run(pop, sched.NewRandom(rng.StreamSeed(1, uint64(k), uint64(n))), stop, sim.Options{
				MaxInteractions: 5_000_000,
				Hooks:           []sim.Hook{check},
			})
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			if check.err != nil {
				t.Fatalf("k=%d n=%d: Lemma 1 violated %v", k, n, check.err)
			}
			if !res.Converged {
				t.Fatalf("k=%d n=%d: did not stabilize in %d interactions", k, n, res.Interactions)
			}
		}
	}
}

func TestTargetCountsRejectsTinyN(t *testing.T) {
	p := core.MustNew(3)
	for _, n := range []int{0, 1, 2} {
		if _, err := p.TargetCounts(n); err == nil {
			t.Errorf("TargetCounts(%d) accepted", n)
		}
	}
}

// The stable signature of Lemmas 4–6 for each remainder class, spelled out.
func TestTargetCountsSignature(t *testing.T) {
	p := core.MustNew(4)
	canon := p.CanonMap()

	// n=12, r=0: all four groups get 3 g-agents, nothing else.
	tgt, err := p.TargetCounts(12)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x <= 4; x++ {
		if tgt[canon[p.G(x)]] != 3 {
			t.Errorf("n=12: target[g%d]=%d, want 3", x, tgt[canon[p.G(x)]])
		}
	}
	if tgt[0] != 0 {
		t.Errorf("n=12: free slot=%d, want 0", tgt[0])
	}

	// n=13, r=1: one leftover free agent.
	tgt, _ = p.TargetCounts(13)
	if tgt[0] != 1 {
		t.Errorf("n=13: free slot=%d, want 1", tgt[0])
	}
	for x := 1; x <= 4; x++ {
		if tgt[canon[p.G(x)]] != 3 {
			t.Errorf("n=13: target[g%d]=%d, want 3", x, tgt[canon[p.G(x)]])
		}
	}

	// n=14, r=2: g1 gets 4, one m2.
	tgt, _ = p.TargetCounts(14)
	if tgt[canon[p.G(1)]] != 4 || tgt[canon[p.G(2)]] != 3 {
		t.Errorf("n=14: g1=%d g2=%d, want 4,3", tgt[canon[p.G(1)]], tgt[canon[p.G(2)]])
	}
	if tgt[canon[p.M(2)]] != 1 {
		t.Errorf("n=14: m2=%d, want 1", tgt[canon[p.M(2)]])
	}

	// n=15, r=3: g1,g2 get 4, one m3.
	tgt, _ = p.TargetCounts(15)
	if tgt[canon[p.G(1)]] != 4 || tgt[canon[p.G(2)]] != 4 || tgt[canon[p.G(3)]] != 3 {
		t.Errorf("n=15: g=%d,%d,%d", tgt[canon[p.G(1)]], tgt[canon[p.G(2)]], tgt[canon[p.G(3)]])
	}
	if tgt[canon[p.M(3)]] != 1 {
		t.Errorf("n=15: m3=%d, want 1", tgt[canon[p.M(3)]])
	}
}

// The target signature must itself satisfy Lemma 1, sum to n, and induce a
// uniform partition — for every n and k in a grid. (The signature lives in
// canonical space; expand it back to raw states for the check.)
func TestTargetCountsConsistency(t *testing.T) {
	for k := 2; k <= 9; k++ {
		p := core.MustNew(k)
		canon := p.CanonMap()
		for n := 3; n <= 40; n++ {
			tgt, err := p.TargetCounts(n)
			if err != nil {
				t.Fatal(err)
			}
			raw := make([]int, p.NumStates())
			// Slot 0 (free) maps back to "initial"; other slots are 1:1.
			for s := 0; s < p.NumStates(); s++ {
				if s == int(p.InitialBar()) {
					continue // avoid double-counting the merged slot
				}
				raw[s] = tgt[canon[s]]
			}
			total := 0
			for _, c := range raw {
				total += c
			}
			if total != n {
				t.Fatalf("k=%d n=%d: target sums to %d", k, n, total)
			}
			if err := p.CheckInvariant(raw); err != nil {
				t.Fatalf("k=%d n=%d: target violates Lemma 1: %v", k, n, err)
			}
			sizes := p.GroupSizesFromCounts(raw)
			min, max := sizes[0], sizes[0]
			for _, v := range sizes {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			if max-min > 1 {
				t.Fatalf("k=%d n=%d: spread %d (sizes %v)", k, n, max-min, sizes)
			}
			want := p.StableGroupSizes(n)
			for i := range sizes {
				if sizes[i] != want[i] {
					t.Fatalf("k=%d n=%d: group sizes %v, want %v", k, n, sizes, want)
				}
			}
			if !p.IsStable(raw) {
				t.Fatalf("k=%d n=%d: IsStable rejects its own target", k, n)
			}
		}
	}
}

func TestIsStableRejectsInitialConfig(t *testing.T) {
	p := core.MustNew(3)
	counts := make([]int, p.NumStates())
	counts[p.Initial()] = 9
	if p.IsStable(counts) {
		t.Error("all-initial configuration reported stable")
	}
}

// End-to-end: Theorem 1 observed under the random scheduler across a grid,
// including n < k and every remainder class.
func TestStabilizationGrid(t *testing.T) {
	grid := []struct{ n, k int }{
		{3, 2}, {4, 2}, {5, 2}, {10, 2},
		{3, 3}, {4, 3}, {5, 3}, {9, 3}, {10, 3}, {11, 3},
		{4, 4}, {6, 4}, {8, 4}, {9, 4}, {12, 4}, {15, 4},
		{3, 5}, {5, 5}, {7, 5}, {24, 5},
		{6, 6}, {13, 6}, {36, 6},
		{4, 8}, {16, 8}, {20, 8},
		{3, 7}, {3, 10}, // n < k: first n-1 groups get one agent each
	}
	for _, g := range grid {
		p := core.MustNew(g.k)
		pop := population.New(p, g.n)
		target, err := p.TargetCounts(g.n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(pop, sched.NewRandom(rng.StreamSeed(7, uint64(g.n), uint64(g.k))),
			sim.NewCountTarget(p.CanonMap(), target), sim.Options{MaxInteractions: 50_000_000})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", g.n, g.k, err)
		}
		if !res.Converged {
			t.Fatalf("n=%d k=%d: not stable after %d interactions: %v", g.n, g.k, res.Interactions, res.FinalCounts)
		}
		if !p.IsStable(res.FinalCounts) {
			t.Fatalf("n=%d k=%d: CountTarget fired on non-stable config %v", g.n, g.k, res.FinalCounts)
		}
		want := p.StableGroupSizes(g.n)
		for i := range want {
			if res.GroupSizes[i] != want[i] {
				t.Fatalf("n=%d k=%d: group sizes %v, want %v", g.n, g.k, res.GroupSizes, want)
			}
		}
	}
}

// Stability is permanent: after reaching the stable signature, further
// interactions never change group membership (they may flip the leftover
// free agent's I-state when n mod k == 1).
func TestStableIsClosed(t *testing.T) {
	for _, g := range []struct{ n, k int }{{12, 4}, {13, 4}, {14, 4}, {10, 3}} {
		p := core.MustNew(g.k)
		pop := population.New(p, g.n)
		target, _ := p.TargetCounts(g.n)
		res, err := sim.Run(pop, sched.NewRandom(11), sim.NewCountTarget(p.CanonMap(), target),
			sim.Options{MaxInteractions: 20_000_000})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d k=%d: setup failed: %v %+v", g.n, g.k, err, res)
		}
		sizes := append([]int(nil), pop.GroupSizes()...)
		// Hammer the stable config with more interactions.
		_, err = sim.Run(pop, sched.NewRandom(13), sim.After{N: pop.Interactions() + 100_000}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		after := pop.GroupSizes()
		for i := range sizes {
			if after[i] != sizes[i] {
				t.Fatalf("n=%d k=%d: group sizes drifted from %v to %v after stability", g.n, g.k, sizes, after)
			}
		}
		if !p.IsStable(pop.Counts()) {
			t.Fatalf("n=%d k=%d: left stable set", g.n, g.k)
		}
	}
}

// StableChecker must agree with IsStable at every configuration of a
// random execution (it is the allocation-free fast path used by the count
// engine's stop predicate).
func TestStableCheckerMatchesIsStable(t *testing.T) {
	p := core.MustNew(4)
	const n = 14
	check, err := p.StableChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(p, n)
	s := sched.NewRandom(21)
	for i := 0; i < 200000; i++ {
		a, b := s.Next(pop)
		pop.Interact(a, b)
		counts := pop.CountsView()
		if got, want := check(counts), p.IsStable(pop.Counts()); got != want {
			t.Fatalf("step %d: checker %v, IsStable %v", i, got, want)
		}
		if check(counts) {
			return
		}
	}
	t.Fatal("never stabilized")
}

// On count vectors at and next to the stable signature, for k = 2…12 and
// several n, the one-pass StableChecker returns IsStable's verdict. Each
// vector splits the free agents at random between initial and initial',
// and every other one then moves one agent between two random states.
func TestStableCheckerMatchesIsStableOnRandomVectors(t *testing.T) {
	r := rng.New(0x57ab1e)
	for k := 2; k <= 12; k++ {
		p := core.MustNew(k)
		S := p.NumStates()
		for _, n := range []int{3, k + 1, 5*k + 2, 7*k + 1, 960} {
			check, err := p.StableChecker(n)
			if err != nil {
				t.Fatal(err)
			}
			target, err := p.TargetCounts(n)
			if err != nil {
				t.Fatal(err)
			}
			const trials = 200
			stable := 0
			for trial := 0; trial < trials; trial++ {
				counts := make([]int, S)
				free := int(r.Uint64n(uint64(target[0] + 1)))
				counts[p.Initial()], counts[p.InitialBar()] = free, target[0]-free
				for x := 2; x < S; x++ {
					counts[x] = target[x-1]
				}
				if trial%2 == 1 {
					a, b := r.Uint64n(uint64(S)), r.Uint64n(uint64(S))
					if counts[a] > 0 {
						counts[a]--
						counts[b]++
					}
				}
				got, want := check(counts), p.IsStable(counts)
				if got != want {
					t.Fatalf("k=%d n=%d counts %v: checker %v, IsStable %v", k, n, counts, got, want)
				}
				if want {
					stable++
				}
			}
			if stable == 0 || stable == trials {
				t.Errorf("k=%d n=%d: IsStable was %v on all %d vectors", k, n, stable > 0, trials)
			}
		}
	}
}

// The stop predicate allocates nothing per call, whether it returns at the
// first slot or compares every one.
func TestStableCheckerAllocs(t *testing.T) {
	p := core.MustNew(8)
	check, err := p.StableChecker(960)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]int, p.NumStates())
	start[p.Initial()] = 960
	stable := make([]int, p.NumStates())
	for x := 1; x <= 8; x++ {
		stable[p.G(x)] = 120
	}
	for _, counts := range [][]int{start, stable} {
		if allocs := testing.AllocsPerRun(100, func() { check(counts) }); allocs != 0 {
			t.Errorf("checker allocates %v times per call, want 0", allocs)
		}
	}
	if check(start) || !check(stable) {
		t.Error("checker verdicts wrong on the initial and the stable configuration")
	}
}

func TestStableCheckerRejectsTinyN(t *testing.T) {
	if _, err := core.MustNew(3).StableChecker(2); err == nil {
		t.Fatal("n=2 accepted")
	}
}
