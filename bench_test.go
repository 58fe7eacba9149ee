package repro_test

// The DESIGN.md ablations A1–A3: the paper's protocol against its
// baselines and against a deterministic scheduler, one convergence-cost
// benchmark each. The custom metric "interactions/run" is the paper's
// y-axis; ns/op additionally shows the simulator's own cost. The
// evaluation's figure points are kpart bench's suite, run under
// `go test -bench` by cmd/kpart's BenchmarkSuite.

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

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
