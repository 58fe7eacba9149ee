package main

// kpart bench runs the repository's benchmark suite, benchSuite: one
// representative point per figure of the paper's evaluation, the batched
// engine's headline, two scenario points, and a raw engine-throughput
// probe. It writes BENCH_kpart.json, the perf trajectory kpart bench-diff
// compares successive changes against. BenchmarkSuite and
// BenchmarkEngineThroughput run the same table, seeds and loop under
// `go test -bench`.
//
//	kpart bench [-out BENCH_kpart.json] [-trials 5] [-debug-addr :6060]

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
	NProc      int          `json:"nproc,omitempty"` // host CPUs, runtime.NumCPU; older documents lack it
	Points     []benchPoint `json:"points"`
}

// benchEntry is one point of the suite.
type benchEntry struct {
	name string
	spec harness.TrialSpec
}

// benchSeed roots the suite's seeds: trial t of a point runs under
// rng.StreamSeed(benchSeed, n, k, t).
const benchSeed = 0xbe9c4

// benchSuite holds the representative points, kept small enough that the
// suite finishes in well under a minute. The scale-batch point is the
// headline of the batched engine: a hundred-million-agent population to
// stability in about a second; its interaction budget must be explicit
// because ~5·10¹⁶ interactions dwarf the harness default cap.
var benchSuite = []benchEntry{
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

func benchCmd(ctx context.Context, args []string) error {
	fs := newFlags()
	var (
		out       = fs.String("out", "BENCH_kpart.json", "output path for the benchmark document")
		trials    = fs.Int("trials", 5, "trials per suite point")
		debugAddr = fs.String("debug-addr", "", "serve pprof and /debug/vars on this address (e.g. :6060)")
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
		NProc:      runtime.NumCPU(),
	}
	for _, e := range benchSuite {
		pt, err := runPoint(ctx, e, *trials)
		if err != nil {
			return err
		}
		doc.Points = append(doc.Points, pt)
		fmt.Printf("%-24s %12.0f interactions/run  %12s/trial  %10.3g interactions/sec\n",
			pt.Name, pt.MeanInteractions,
			time.Duration(pt.WallNSMedian).Round(time.Microsecond), pt.InteractionsPerSec)
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

// trial runs trial t of e and returns its result and wall time. A trial
// that does not stabilize is an error, except on a scenario point, whose
// runs may freeze or stall by design.
func (e benchEntry) trial(ctx context.Context, t int) (harness.TrialResult, time.Duration, error) {
	spec := e.spec
	spec.Seed = rng.StreamSeed(benchSeed, uint64(spec.N), uint64(spec.K), uint64(t))
	res, wall, _, err := harness.RunTimedCtx(ctx, spec, harness.RunOptions{})
	switch {
	case err != nil:
		err = fmt.Errorf("%s trial %d: %w", e.name, t, err)
	case !res.Converged && !spec.HasScenario():
		err = fmt.Errorf("%s trial %d did not stabilize", e.name, t)
	}
	return res, wall, err
}

// runPoint executes trials of e, one at a time, and aggregates wall times
// and interaction counts.
func runPoint(ctx context.Context, e benchEntry, trials int) (benchPoint, error) {
	base := e.spec
	pt := benchPoint{Name: e.name, N: base.N, K: base.K, Engine: base.Engine.String(), Trials: trials}
	if base.HasScenario() {
		pt.Scenario = fmt.Sprintf("topology=%s fairness=%s", base.Topology, base.Fairness)
	}
	var wallNS, interactions []float64
	var totalI uint64
	var totalWall time.Duration
	for t := 0; t < trials; t++ {
		res, wall, err := e.trial(ctx, t)
		if err != nil {
			return pt, err
		}
		if base.HasScenario() {
			if res.Converged {
				pt.Converged++
			}
			if res.Frozen {
				pt.Frozen++
			}
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

// engineLoop runs steps interactions of the agent engine on the Figure 6
// shape (n = 960, k = 8): one sim.Run capped at steps under a CountTarget
// that cannot fire, so it is the loop trials run, stop detection included,
// with none of the harness around it. It calls start between the set-up
// and the run.
func engineLoop(s sched.Scheduler, steps uint64, start func()) error {
	p := harness.Proto(8)
	target, err := p.TargetCounts(960)
	if err != nil {
		return err
	}
	pop := population.New(p, 960)
	// No slot of the target is occupied, so the condition never holds.
	stop := sim.NewCountTarget(p.CanonMap(), make([]int, len(target)))
	start()
	res, err := sim.Run(pop, s, stop, sim.Options{MaxInteractions: steps})
	if err == nil && res.Interactions != steps {
		err = fmt.Errorf("ran %d of %d interactions", res.Interactions, steps)
	}
	return err
}

// engineThroughput times the agent engine's loop, as
// BenchmarkEngineThroughput/fused does: its cost per interaction.
func engineThroughput() (benchPoint, error) {
	const steps = 5_000_000
	var start time.Time
	if err := engineLoop(sched.NewRandom(1), steps, func() { start = time.Now() }); err != nil {
		return benchPoint{}, err
	}
	wall := time.Since(start)
	perStep := float64(wall.Nanoseconds()) / steps
	return benchPoint{
		Name: "engine-throughput", N: 960, K: 8, Engine: "agent", Trials: 1,
		WallNSMean: perStep, WallNSMedian: perStep, WallNSP90: perStep,
		InteractionsPerSec: steps / wall.Seconds(),
	}, nil
}
