package main

// kpart bench is the machine-readable companion to the bench_test.go
// families: it runs a fixed suite of representative workload points (one
// per figure of the paper's evaluation, plus a raw engine-throughput
// probe) and writes BENCH_kpart.json, so successive changes have a perf
// trajectory to compare against instead of eyeballing `go test -bench`
// text output.
//
//	kpart bench [-out BENCH_kpart.json] [-trials 5] [-debug-addr :6060]
//	kpart bench -resume [-trial-timeout 5m]
//
// The seeds match bench_test.go's (StreamSeed(0xbe9c4, n, k, trial)),
// so interactions/run agrees with the benchmarks point for point.
//
// Completed suite trials are checkpointed to <out>.journal; after a
// crash or SIGINT, -resume reuses them (including their recorded wall
// times) instead of re-measuring from scratch.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchPoint is one suite entry's aggregated outcome.
type benchPoint struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	Engine string `json:"engine"`
	Trials int    `json:"trials"`
	// Scenario points only: how the trials ended. Scenario runs are
	// allowed to freeze or stall (that is what they measure); the
	// convergence split is part of the benchmark's identity, so a
	// regression here is as real as a wall-time one.
	Scenario  string `json:"scenario,omitempty"`
	Converged int    `json:"converged,omitempty"`
	Frozen    int    `json:"frozen,omitempty"`
	// MeanInteractions is the paper's y-axis, interactions/run.
	MeanInteractions float64 `json:"mean_interactions"`
	// Wall-clock per trial, nanoseconds.
	WallNSMean   float64 `json:"wall_ns_mean"`
	WallNSMedian float64 `json:"wall_ns_median"`
	WallNSP90    float64 `json:"wall_ns_p90"`
	// InteractionsPerSec is the simulator's own throughput at this point.
	InteractionsPerSec float64 `json:"interactions_per_sec"`
}

// benchDoc is the BENCH_kpart.json document.
type benchDoc struct {
	CreatedAt  string       `json:"created_at"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Points     []benchPoint `json:"points"`
}

func benchCmd(ctx context.Context, args []string) error {
	fs := newFlags()
	var (
		out          = fs.String("out", "BENCH_kpart.json", "output path for the benchmark document")
		trials       = fs.Int("trials", 5, "trials per suite point")
		debugAddr    = fs.String("debug-addr", "", "serve pprof and /debug/vars on this address (e.g. :6060)")
		resume       = fs.Bool("resume", false, "resume from <out>.journal, reusing completed suite trials")
		trialTimeout = fs.Duration("trial-timeout", 0, "per-trial wall deadline (0 = none)")
	)
	if err := parseFlags(fs, args, map[string]int{"trials": 1}); err != nil {
		return err
	}
	if err := serveDebug(*debugAddr); err != nil {
		return err
	}

	doc := benchDoc{
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Representative points: one per benchmark family in bench_test.go,
	// kept small enough that the suite finishes in well under a minute.
	// The scale-batch point is the headline of the batched engine: a
	// hundred-million-agent population to stability in about a second; its
	// interaction budget must be explicit because ~5·10¹⁶ interactions
	// dwarf the harness default cap.
	suite := []struct {
		name string
		spec harness.TrialSpec
	}{
		{"fig3/k=4/n=24", harness.TrialSpec{N: 24, K: 4, Engine: harness.EngineAgent}},
		{"fig3/k=6/n=36", harness.TrialSpec{N: 36, K: 6, Engine: harness.EngineAgent}},
		{"fig5/k=4/n=120", harness.TrialSpec{N: 120, K: 4, Engine: harness.EngineAgent}},
		{"fig6/k=8/n=960", harness.TrialSpec{N: 960, K: 8, Engine: harness.EngineAgent}},
		{"fig6-count/k=8/n=960", harness.TrialSpec{N: 960, K: 8, Engine: harness.EngineCount}},
		{"fig6-count/k=12/n=960", harness.TrialSpec{N: 960, K: 12, Engine: harness.EngineCount}},
		{"fig6-batch/k=8/n=960", harness.TrialSpec{N: 960, K: 8, Engine: harness.EngineBatch}},
		{"scale-batch/k=8/n=1e8", harness.TrialSpec{N: 100_000_000, K: 8, Engine: harness.EngineBatch, MaxInteractions: 1 << 62}},
		// Scenario points measure the scenario seam's overhead, not
		// convergence speed: the ring point runs the edge scheduler plus
		// the orbit-closure freeze detector to its (usually frozen) end;
		// the weak point drives the adversary a fixed 500k interactions
		// (it stalls by design, so wall/interaction is the metric).
		{"scenario-ring/k=3/n=60", harness.TrialSpec{N: 60, K: 3, Engine: harness.EngineAgent,
			MaxInteractions: 5_000_000, Topology: harness.TopologySpec{Kind: harness.TopologyRing}}},
		{"scenario-weak/k=3/n=12", harness.TrialSpec{N: 12, K: 3, Engine: harness.EngineAgent,
			MaxInteractions: 500_000, Fairness: harness.FairnessWeak}},
	}
	meta := fmt.Sprintf("kpart-bench trials=%d", *trials)
	err := journaled(*out+".journal", meta, *resume, func(j *harness.Journal) error {
		opts := harness.RunOptions{TrialTimeout: *trialTimeout, Journal: j}
		for _, s := range suite {
			pt, err := runPoint(ctx, opts, s.name, s.spec, *trials)
			if err != nil {
				return err
			}
			doc.Points = append(doc.Points, pt)
			fmt.Printf("%-24s %12.0f interactions/run  %12s/trial  %10.3g interactions/sec\n",
				pt.Name, pt.MeanInteractions,
				time.Duration(pt.WallNSMedian).Round(time.Microsecond), pt.InteractionsPerSec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tp, err := engineThroughput()
	if err != nil {
		return err
	}
	doc.Points = append(doc.Points, tp)
	fmt.Printf("%-24s %39s  %10.3g interactions/sec\n", tp.Name, "(agent engine loop)", tp.InteractionsPerSec)

	if err := writeJSON(*out, doc); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

// runPoint executes trials at one point, one at a time, and aggregates
// wall times and interaction counts. Journaled trials (a -resume run)
// contribute their recorded wall times instead of being re-measured.
// Scenario points tolerate unconverged trials (freezes and stalls are
// their workload); for everything else a failure to stabilize aborts the
// suite.
func runPoint(ctx context.Context, opts harness.RunOptions, name string, base harness.TrialSpec, trials int) (benchPoint, error) {
	pt := benchPoint{Name: name, N: base.N, K: base.K, Engine: base.Engine.String(), Trials: trials}
	scenarioPoint := base.HasScenario()
	if scenarioPoint {
		pt.Scenario = fmt.Sprintf("topology=%s fairness=%s", base.Topology, base.Fairness)
	}
	var wallNS, interactions []float64
	var totalI uint64
	var totalWall time.Duration
	for t := 0; t < trials; t++ {
		spec := base
		spec.Seed = rng.StreamSeed(0xbe9c4, uint64(base.N), uint64(base.K), uint64(t))
		res, wall, _, err := harness.RunTimedCtx(ctx, spec, opts)
		if err != nil {
			return pt, fmt.Errorf("%s trial %d: %w", name, t, err)
		}
		if scenarioPoint {
			if res.Converged {
				pt.Converged++
			}
			if res.Frozen {
				pt.Frozen++
			}
		} else if !res.Converged {
			return pt, fmt.Errorf("%s trial %d did not stabilize", name, t)
		}
		wallNS = append(wallNS, float64(wall.Nanoseconds()))
		interactions = append(interactions, float64(res.Interactions))
		totalI += res.Interactions
		totalWall += wall
	}
	pt.MeanInteractions = stats.Mean(interactions)
	pt.WallNSMean = stats.Mean(wallNS)
	pt.WallNSMedian = stats.QuantileOf(wallNS, 0.5)
	pt.WallNSP90 = stats.QuantileOf(wallNS, 0.9)
	if totalWall > 0 {
		pt.InteractionsPerSec = float64(totalI) / totalWall.Seconds()
	}
	return pt, nil
}

// engineThroughput measures the agent engine's cost per interaction on
// the Figure 6 shape (n = 960, k = 8), mirroring BenchmarkEngineThroughput:
// one sim.Run capped at a fixed interaction count under a CountTarget
// that cannot fire, so it times the loop trials run, stop detection
// included, with none of the harness around it.
func engineThroughput() (benchPoint, error) {
	const n, k, steps = 960, 8, 5_000_000
	p := harness.Proto(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		return benchPoint{}, err
	}
	pop := population.New(p, n)
	// No slot of the target is occupied, so the condition never holds.
	stop := sim.NewCountTarget(p.CanonMap(), make([]int, len(target)))
	start := time.Now()
	if _, err := sim.Run(pop, sched.NewRandom(1), stop, sim.Options{MaxInteractions: steps}); err != nil {
		return benchPoint{}, err
	}
	wall := time.Since(start)
	return benchPoint{
		Name: "engine-throughput", N: n, K: k, Engine: "agent", Trials: 1,
		WallNSMean:         float64(wall.Nanoseconds()) / steps,
		WallNSMedian:       float64(wall.Nanoseconds()) / steps,
		WallNSP90:          float64(wall.Nanoseconds()) / steps,
		InteractionsPerSec: steps / wall.Seconds(),
	}, nil
}
