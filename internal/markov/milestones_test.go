package markov

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rng"
)

// Milestones must be strictly increasing (each gk arrival strictly after
// the previous), bounded above by the terminal stabilization time, and
// solved consistently whether or not the chain is shared.
func TestMilestonesShapeAndBounds(t *testing.T) {
	for _, cse := range []struct{ n, k int }{{6, 3}, {7, 3}, {8, 4}, {9, 3}} {
		p := core.MustNew(cse.k)
		ms, err := Milestones(p, cse.n)
		if err != nil {
			t.Fatal(err)
		}
		q := cse.n / cse.k
		if len(ms) != q {
			t.Fatalf("n=%d k=%d: %d milestones, want %d", cse.n, cse.k, len(ms), q)
		}
		prev := 0.0
		for j, m := range ms {
			if m <= prev {
				t.Fatalf("n=%d k=%d: milestone %d = %v not above previous %v", cse.n, cse.k, j+1, m, prev)
			}
			prev = m
		}
		total, err := ExpectedStabilization(p, cse.n)
		if err != nil {
			t.Fatal(err)
		}
		if ms[q-1] > total+1e-9 {
			t.Fatalf("n=%d k=%d: last milestone %v exceeds stabilization %v", cse.n, cse.k, ms[q-1], total)
		}
	}
}

// When n is a multiple of k the last gk arrival IS stabilization for k=2?
// No — in general leftover settling can follow; but when r = 0 and the
// final grouping completes, the configuration is already the unique stable
// signature, so the last milestone must EQUAL the terminal expectation.
func TestLastMilestoneEqualsStabilizationWhenExact(t *testing.T) {
	for _, cse := range []struct{ n, k int }{{6, 3}, {8, 4}, {9, 3}} {
		p := core.MustNew(cse.k)
		ms, err := Milestones(p, cse.n)
		if err != nil {
			t.Fatal(err)
		}
		total, err := ExpectedStabilization(p, cse.n)
		if err != nil {
			t.Fatal(err)
		}
		last := ms[len(ms)-1]
		if math.Abs(last-total) > 1e-6*(1+total) {
			t.Errorf("n=%d k=%d: last milestone %v vs stabilization %v", cse.n, cse.k, last, total)
		}
	}
}

// HittingTimesTo with the stable mask must reproduce HittingTimes — the
// generalized solver is the same solver.
func TestHittingTimesToStableMaskMatches(t *testing.T) {
	ch, err := New(core.MustNew(3), 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ch.HittingTimes(1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ch.HittingTimesTo(ch.Stable, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHittingTimesToRejectsBadMask(t *testing.T) {
	ch, err := New(core.MustNew(3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.HittingTimesTo(make([]bool, 3), 1e-10, 0); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if _, err := ch.HittingTimesTo(make([]bool, len(ch.Graph.Nodes)), 1e-10, 0); err == nil {
		t.Fatal("empty target set not detected")
	}
}

// Cross-validation against the simulation's milestone marks: the mean of
// simulated Marks[j] must match milestone j to within sampling error. This
// is the per-phase refinement of TestExactMatchesSimulation — a bias that
// cancels in the total (e.g. one phase too fast, a later one too slow)
// still shows up here.
func TestMilestonesMatchSimulatedMarks(t *testing.T) {
	const n, k, trials = 7, 3, 40000
	p := core.MustNew(k)
	ms, err := Milestones(p, n)
	if err != nil {
		t.Fatal(err)
	}
	q := n / k
	sums := make([]float64, q)
	sumsqs := make([]float64, q)
	for i := 0; i < trials; i++ {
		res, err := harness.RunTrial(harness.TrialSpec{
			N: n, K: k, Grouping: true,
			Seed: rng.StreamSeed(0x31a5, uint64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Marks) != q {
			t.Fatalf("trial %d: %d marks, want %d", i, len(res.Marks), q)
		}
		for j, m := range res.Marks {
			x := float64(m)
			sums[j] += x
			sumsqs[j] += x * x
		}
	}
	for j := 0; j < q; j++ {
		mean := sums[j] / trials
		variance := (sumsqs[j] - sums[j]*sums[j]/trials) / (trials - 1)
		se := math.Sqrt(variance / trials)
		if diff := math.Abs(mean - ms[j]); diff > 4*se+1e-9 {
			t.Errorf("milestone %d: simulated mean %.3f vs exact %.3f (|diff| %.3f > 4·SE %.3f)",
				j+1, mean, ms[j], diff, 4*se)
		}
	}
}
