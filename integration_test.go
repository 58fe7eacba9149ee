package repro_test

// Integration tests: full-stack flows that cross package boundaries the
// unit suites don't — a miniature end-to-end reproduction of the paper's
// evaluation pipeline, trace round-trips feeding the fairness meter, and
// the three engines (agent-level, count-level, exact Markov) agreeing on
// the same experiment.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/countsim"
	"repro/internal/fairness"
	"repro/internal/harness"
	"repro/internal/markov"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// A miniature Figure 3 + Figure 6 pipeline: sweep, aggregate, growth-fit —
// asserting the paper's two qualitative conclusions on freshly generated
// data (small trials; the full version lives in `kpart experiments`).
func TestMiniEvaluationPipeline(t *testing.T) {
	// Mini Figure 3: k=4, n in 8..31, 10 trials.
	var cells [][2]int
	for n := 8; n <= 31; n++ {
		cells = append(cells, [2]int{n, 4})
	}
	pts, err := harness.RunGridCtx(context.Background(), harness.SweepSpec{
		TrialSpec: harness.TrialSpec{Seed: 1234}, Trials: 10,
	}, cells, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Growth: last point well above first.
	if pts[len(pts)-1].Mean < 3*pts[0].Mean {
		t.Fatalf("no growth across the sweep: %v -> %v", pts[0].Mean, pts[len(pts)-1].Mean)
	}
	// Jaggedness: at least one decrease when n increases (the paper's
	// period-k dips). With 24 consecutive n this is robust even at 10
	// trials.
	decreases := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].Mean < pts[i-1].Mean {
			decreases++
		}
	}
	if decreases == 0 {
		t.Fatal("monotone sweep: the n mod k jaggedness did not reproduce")
	}

	// Mini Figure 6: n=120, k in {2,3,4,6,8,10}, 10 trials; exponential
	// growth in k must beat the linear fit.
	cells = nil
	for _, k := range []int{2, 3, 4, 6, 8, 10} {
		cells = append(cells, [2]int{120, k})
	}
	fig6, err := harness.RunGridCtx(context.Background(), harness.SweepSpec{
		TrialSpec: harness.TrialSpec{Seed: 77}, Trials: 10, PointID: 1 << 21,
	}, cells, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys []float64
	for _, p := range fig6 {
		xs = append(xs, float64(p.K))
		ys = append(ys, p.Mean)
	}
	g, err := stats.FitGrowth(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if g.Exponential.R2 < g.Linear.R2 {
		t.Fatalf("exponential fit (r²=%.3f) does not beat linear (r²=%.3f)",
			g.Exponential.R2, g.Linear.R2)
	}
}

// Record an execution, serialize it, decode it, replay it, and run the
// fairness meter over the replayed events — every artifact must agree.
func TestTraceReplayFairnessRoundTrip(t *testing.T) {
	p := core.MustNew(3)
	const n = 12
	pop := population.New(p, n)
	var buf bytes.Buffer
	w := &trace.Writer{W: &buf}
	meter := fairness.NewMeter(n)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(pop, sched.NewRandom(5), sim.NewCountTarget(p.CanonMap(), target),
		sim.Options{Hooks: []sim.Hook{w, meter}})
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.Replay(p, hdr, events)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStable(replayed.Counts()) {
		t.Fatal("replayed run not stable")
	}

	meter2 := fairness.NewMeter(n)
	for _, e := range events {
		meter2.Record(e.I, e.J)
	}
	r1, r2 := meter.Report(), meter2.Report()
	if r1 != r2 {
		t.Fatalf("fairness reports diverge: %+v vs %+v", r1, r2)
	}
}

// Four engines, one number: for a small (n, k), the exact Markov
// expectation, the agent-level mean, the count-level mean, and the batched
// engine at matching size 1 (which reproduces the sequential law exactly)
// must coincide (each simulated mean within 4 SE of exact).
func TestThreeEnginesAgree(t *testing.T) {
	const n, k, trials = 7, 3, 20000
	p := core.MustNew(k)

	exact, err := markov.ExpectedStabilization(p, n)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, runOne func(i int) uint64) {
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			x := float64(runOne(i))
			sum += x
			sumsq += x * x
		}
		mean := sum / trials
		se := math.Sqrt(((sumsq - sum*sum/trials) / (trials - 1)) / trials)
		if diff := math.Abs(mean - exact); diff > 4*se {
			t.Errorf("%s mean %.3f vs exact %.3f (diff %.3f > 4·SE %.3f)",
				name, mean, exact, diff, 4*se)
		}
	}

	check("agent", func(i int) uint64 {
		res, err := harness.RunTrial(harness.TrialSpec{
			N: n, K: k, Seed: rng.StreamSeed(0x111, uint64(i)),
		})
		if err != nil || !res.Converged {
			t.Fatalf("%v", err)
		}
		return res.Interactions
	})
	check("count", func(i int) uint64 {
		s, err := countsim.New(p, n, rng.StreamSeed(0x222, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := s.RunUntil(p.IsStable, 1<<40)
		if err != nil || !ok {
			t.Fatalf("%v", err)
		}
		return s.Interactions()
	})
	check("batch", func(i int) uint64 {
		res, err := harness.RunTrial(harness.TrialSpec{
			N: n, K: k, Seed: rng.StreamSeed(0x333, uint64(i)),
			Engine: harness.EngineBatch, BatchSize: 1,
		})
		if err != nil || !res.Converged {
			t.Fatalf("%v", err)
		}
		return res.Interactions
	})
}

// Pinned trajectories at the paper's Figure 6 point (n = 960, k = 8): the
// (Interactions, Productive) pair every engine reaches on the first eight
// fig6 seeds. Any change to an engine's hot loop, its sampler or the
// generator under it must leave these byte-identical.
func TestFig6TrajectoriesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("24 full n=960 trials; skipped in -short runs")
	}
	want := map[harness.Engine][8][2]uint64{
		harness.EngineAgent: {
			{9821307, 116617}, {9265836, 99279}, {12652894, 110962}, {6033420, 91926},
			{6040663, 111603}, {6524786, 85242}, {10419382, 97718}, {7087697, 87219},
		},
		harness.EngineCount: {
			{8913063, 98213}, {10080096, 132246}, {4620918, 99189}, {4951752, 94690},
			{3749235, 84984}, {1941110, 73797}, {6385422, 104116}, {14759591, 130053},
		},
		harness.EngineBatch: {
			{13463125, 114947}, {3499278, 92563}, {6861724, 102409}, {13473437, 117392},
			{2838240, 84592}, {13843407, 128225}, {8683745, 100669}, {2598246, 77949},
		},
	}
	for _, e := range []harness.Engine{harness.EngineAgent, harness.EngineCount, harness.EngineBatch} {
		for i, w := range want[e] {
			res, err := harness.RunTrial(harness.TrialSpec{
				N: 960, K: 8, Seed: rng.StreamSeed(1, 0xf16, uint64(i)), Engine: e,
			})
			if err != nil || !res.Converged {
				t.Fatalf("%s seed %d: converged=%v err=%v", e, i, res.Converged, err)
			}
			if got := [2]uint64{res.Interactions, res.Productive}; got != w {
				t.Errorf("%s seed %d: (interactions, productive) = %v, want %v", e, i, got, w)
			}
		}
	}
}

// The Director reaches the same stable partition the random scheduler
// does, orders of magnitude faster, and the rule-tally confirms it never
// needs the demolition machinery from the all-initial configuration.
func TestDirectorVsRandomEndToEnd(t *testing.T) {
	const n, k = 120, 8
	p := core.MustNew(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}

	dir := core.NewDirector(p)
	dirSched := sched.Func{SchedName: dir.Name(), F: func(v sched.View) (int, int) { return dir.Next(v) }}
	tally := core.NewTally(p)
	popD := population.New(p, n)
	resD, err := sim.Run(popD, dirSched, sim.NewCountTarget(p.CanonMap(), target), sim.Options{
		Hooks: []sim.Hook{sim.StepFunc(func(pop *population.Population, s sim.StepInfo) {
			tally.Observe(s.Before.P, s.Before.Q)
		})},
	})
	if err != nil || !resD.Converged {
		t.Fatalf("director: %v %+v", err, resD)
	}
	if tally.Counts[core.Rule8] != 0 || tally.Counts[core.Rule9] != 0 || tally.Counts[core.Rule10] != 0 {
		t.Fatalf("director used demolition rules: %v", tally.Counts)
	}

	popR := population.New(p, n)
	resR, err := sim.Run(popR, sched.NewRandom(3), sim.NewCountTarget(p.CanonMap(), target), sim.Options{})
	if err != nil || !resR.Converged {
		t.Fatalf("random: %v %+v", err, resR)
	}

	for i := range resD.GroupSizes {
		if resD.GroupSizes[i] != resR.GroupSizes[i] {
			t.Fatalf("different stable partitions: %v vs %v", resD.GroupSizes, resR.GroupSizes)
		}
	}
	if resD.Interactions*10 > resR.Interactions {
		t.Fatalf("director (%d) not clearly faster than random (%d)",
			resD.Interactions, resR.Interactions)
	}
}
