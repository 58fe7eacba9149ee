package repro_test

// One benchmark family per figure of the paper's evaluation (Section 5)
// plus the DESIGN.md ablations. Each bench measures complete
// runs-to-stability at representative parameter points; sub-benchmark
// names carry the point so `go test -bench Fig3` prints a sweep. The
// custom metric "interactions/run" is the paper's y-axis — wall-clock
// ns/op additionally shows the simulator's own cost.
//
// Full sweeps with 100 trials and confidence intervals are the job of
// `kpart experiments`; benches keep points small enough for -bench=. to
// finish in minutes.

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// benchRun executes one trial per iteration with per-iteration seeds and
// reports the mean interaction count as a custom metric.
func benchRun(b *testing.B, n, k int, grouping bool) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTrial(harness.TrialSpec{
			N: n, K: k,
			Seed:     rng.StreamSeed(0xbe9c4, uint64(n), uint64(k), uint64(i)),
			Grouping: grouping,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("n=%d k=%d did not stabilize", n, k)
		}
		total += res.Interactions
	}
	b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
}

// BenchmarkFig3 regenerates Figure 3 points: interactions vs n for
// k ∈ {4, 6, 8}, including off-multiple n to exercise the n mod k
// jaggedness the paper highlights.
func BenchmarkFig3(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		for _, n := range []int{2 * k, 2*k + 1, 4 * k, 4*k + k - 1, 6 * k} {
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				benchRun(b, n, k, false)
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 points: the same sweep with
// per-grouping instrumentation enabled (the obs.Milestones hook), verifying
// the instrumentation's overhead is negligible and the marks are produced.
func BenchmarkFig4(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		n := 5 * k
		b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
			benchRun(b, n, k, true)
		})
	}
}

// BenchmarkFig5 regenerates Figure 5 points: interactions vs n = 120·n'
// for k ∈ {3, 4, 5, 6} with n mod k == 0 (growth in n).
func BenchmarkFig5(b *testing.B) {
	for _, k := range []int{3, 4, 5, 6} {
		for _, f := range []int{1, 2, 4} {
			n := 120 * f
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				benchRun(b, n, k, false)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 points: interactions vs k at n = 960
// (exponential growth in k). Larger k (15, 16, 20, 24) are reachable via
// `kpart experiments -fig6max`; the bench stops at 12 to keep -bench=.
// affordable.
func BenchmarkFig6(b *testing.B) {
	for _, k := range []int{2, 3, 4, 6, 8, 12} {
		b.Run(fmt.Sprintf("n=960/k=%d", k), func(b *testing.B) {
			benchRun(b, 960, k, false)
		})
	}
}

// BenchmarkAblationComposed compares the paper's protocol against repeated
// bipartition at k = 2^h (DESIGN.md A1). Both use 3k−2 states; the bench
// contrasts their convergence cost (their output quality is contrasted by
// the harness tests and `kpart compare`).
func BenchmarkAblationComposed(b *testing.B) {
	for _, cse := range []struct{ n, k int }{{64, 4}, {64, 8}} {
		rows := func(b *testing.B, name string) {
			b.Run(fmt.Sprintf("%s/k=%d/n=%d", name, cse.k, cse.n), func(b *testing.B) {
				var total uint64
				c := contenderByName(b, name)
				for i := 0; i < b.N; i++ {
					proto, stop, err := c.Build(cse.k, cse.n)
					if err != nil {
						b.Fatal(err)
					}
					pop := population.New(proto, cse.n)
					s := sched.NewRandom(rng.StreamSeed(0xab1a, uint64(cse.n), uint64(i)))
					res, err := sim.Run(pop, s, stop, sim.Options{})
					if err != nil || !res.Converged {
						b.Fatalf("%v %+v", err, res)
					}
					total += res.Interactions
				}
				b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
			})
		}
		rows(b, "k-partition (paper)")
		rows(b, "repeated bipartition")
	}
}

// contenderByName resolves a harness contender or fails the benchmark.
func contenderByName(b *testing.B, name string) harness.Contender {
	b.Helper()
	for _, c := range harness.Contenders() {
		if c.Name == name {
			return c
		}
	}
	b.Fatalf("no contender named %q", name)
	return harness.Contender{}
}

// BenchmarkAblationInterval compares against the approximate interval
// baseline (DESIGN.md A2) on convergence cost.
func BenchmarkAblationInterval(b *testing.B) {
	for _, cse := range []struct{ n, k int }{{64, 4}, {120, 6}} {
		for _, name := range []string{"k-partition (paper)", "interval baseline"} {
			c := contenderByName(b, name)
			b.Run(fmt.Sprintf("%s/k=%d/n=%d", name, cse.k, cse.n), func(b *testing.B) {
				var total uint64
				for i := 0; i < b.N; i++ {
					proto, stop, err := c.Build(cse.k, cse.n)
					if err != nil {
						b.Fatal(err)
					}
					pop := population.New(proto, cse.n)
					s := sched.NewRandom(rng.StreamSeed(0xab2b, uint64(cse.n), uint64(i)))
					res, err := sim.Run(pop, s, stop, sim.Options{})
					if err != nil || !res.Converged {
						b.Fatalf("%v %+v", err, res)
					}
					total += res.Interactions
				}
				b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
			})
		}
	}
}

// BenchmarkAblationScheduler contrasts the random scheduler against the
// deterministic sweep scheduler (DESIGN.md A3).
func BenchmarkAblationScheduler(b *testing.B) {
	const n, k = 48, 4
	p := harness.Proto(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("random", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			pop := population.New(p, n)
			res, err := sim.Run(pop, sched.NewRandom(rng.StreamSeed(0xab3c, uint64(i))),
				sim.NewCountTarget(p.CanonMap(), target), sim.Options{})
			if err != nil || !res.Converged {
				b.Fatalf("%v %+v", err, res)
			}
			total += res.Interactions
		}
		b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
	})
	b.Run("sweep", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			pop := population.New(p, n)
			res, err := sim.Run(pop, sched.NewSweep(),
				sim.NewCountTarget(p.CanonMap(), target), sim.Options{})
			if err != nil || !res.Converged {
				b.Fatalf("%v %+v", err, res)
			}
			total += res.Interactions
		}
		b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
	})
}

// BenchmarkFig6CountEngine reruns representative Figure 6 points on the
// count-based engine (internal/countsim): the same output distribution as
// BenchmarkFig6, but the null-dominated tail is skipped geometrically —
// compare ns/op between the two benches for the speedup, and
// interactions/run for the distributional agreement.
func BenchmarkFig6CountEngine(b *testing.B) {
	benchFig6Engine(b, harness.EngineCount)
}

// BenchmarkFig6BatchEngine reruns the same points and seeds on the batched
// engine (internal/countsim.Batch). At n = 960 almost all of its work is
// the exact final approach, so `go test -bench Fig6` puts its per-step
// overhead over the count engine side by side.
func BenchmarkFig6BatchEngine(b *testing.B) {
	benchFig6Engine(b, harness.EngineBatch)
}

func benchFig6Engine(b *testing.B, e harness.Engine) {
	for _, k := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("n=960/k=%d", k), func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				res, err := harness.RunTrial(harness.TrialSpec{
					N: 960, K: k,
					Seed:   rng.StreamSeed(0xbe9c4, 960, uint64(k), uint64(i)),
					Engine: e,
				})
				if err != nil || !res.Converged {
					b.Fatalf("%v", err)
				}
				total += res.Interactions
			}
			b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
		})
	}
}

// BenchmarkEngineThroughput measures the agent engine's cost per
// interaction on the Figure 6 workload shape (n = 960, k = 8): one
// sim.Run of b.N interactions under a CountTarget that cannot fire, so
// ns/op is ns per interaction of the loop trials run. "fused" is the
// run harness trials make; "general" wraps the same scheduler in a
// sched.Func, which keeps sim.Run on its general loop.
func BenchmarkEngineThroughput(b *testing.B) {
	b.Run("fused", func(b *testing.B) { benchThroughput(b, sched.NewRandom(1)) })
	b.Run("general", func(b *testing.B) {
		r := sched.NewRandom(1)
		benchThroughput(b, sched.Func{SchedName: r.Name(), F: r.Next})
	})
}

func benchThroughput(b *testing.B, s sched.Scheduler) {
	p := harness.Proto(8)
	target, err := p.TargetCounts(960)
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(p, 960)
	// No slot of the target is occupied, so the condition never holds.
	stop := sim.NewCountTarget(p.CanonMap(), make([]int, len(target)))
	b.ResetTimer()
	res, err := sim.Run(pop, s, stop, sim.Options{MaxInteractions: uint64(b.N)})
	if err != nil || res.Interactions != uint64(b.N) {
		b.Fatalf("ran %d of %d interactions: %v", res.Interactions, b.N, err)
	}
}
