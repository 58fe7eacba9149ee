package main

// kpart experiments regenerates the paper's evaluation figures
// (Section 5) as CSV files plus ASCII charts on stdout:
//
//	fig3 — interactions vs n for k in {4,6,8} (jagged, period k)
//	fig4 — per-grouping decomposition of the same sweep (stacked)
//	fig5 — interactions vs n = 120·n' for k in {3,4,5,6} (n mod k = 0)
//	fig6 — interactions vs k at n = 960, log scale (exponential in k)
//
// Auxiliary experiments (opt-in by exact -fig name, never part of
// "all"): traj; scenarios and churn, which chart the protocol OUTSIDE
// the paper's model (restricted interaction graphs, the weak-fairness
// adversary, population churn); and predict, which overlays the
// analytical twin's predictions (internal/twin) on a fresh simulation of
// the fig6 grid, the end-to-end predicted-vs-measured comparison.
//
//	kpart experiments -fig all [-trials 100] [-seed 20180725] [-out results] [-quick]
//	kpart experiments -fig 6 -resume [-trial-timeout 10m]
//	kpart experiments -fig predict [-fig6max 12] [-quick]
//
// -quick shrinks every sweep (fewer trials, smaller ranges) to finish in
// seconds; use it to smoke-test the harness before a full reproduction.
//
// Long campaigns are resilient: every completed trial is checkpointed to
// an append-only journal next to the CSVs (<out>/<fig>.journal), SIGINT
// drains gracefully (in-flight trials abort, completed ones are already
// journaled), and rerunning with -resume picks up exactly where the run
// stopped — the final CSVs are identical to an uninterrupted run's.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/twin"
)

func experimentsCmd(ctx context.Context, args []string) error {
	fs := newFlags()
	var (
		fig          = fs.String("fig", "all", "which figure to run: 3, 4, 5, 6, or all; auxiliary experiments: traj, scenarios (topology × fairness), churn (crash survival), predict (twin predictions vs simulation)")
		trials       = fs.Int("trials", harness.DefaultTrials, "trials per parameter point")
		seed         = fs.Uint64("seed", harness.DefaultSeed, "root seed")
		outDir       = fs.String("out", "results", "directory for CSV output")
		workers      = fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		quick        = fs.Bool("quick", false, "shrink all sweeps for a fast smoke run")
		nmax         = fs.Int("nmax", 60, "fig3/4: maximum n")
		fig6max      = fs.Int("fig6max", 12, "fig6: largest k (divisor of 960)")
		engine       = fs.String("engine", "agent", "simulation backend: agent, count or batch (count skips null runs, same distribution; batch aggregates interactions per batch, fastest at large n)")
		debugAddr    = fs.String("debug-addr", "", "serve pprof, /debug/vars and /metrics on this address (e.g. :6060)")
		metrics      = fs.Bool("metrics", false, "record harness metrics; snapshot written to <out>/metrics.jsonl")
		resume       = fs.Bool("resume", false, "resume from existing <out>/<fig>.journal files instead of starting fresh")
		trialTimeout = fs.Duration("trial-timeout", 0, "per-trial wall deadline (0 = none)")
	)
	min := map[string]int{"trials": 1, "workers": 0, "nmax": 3, "fig6max": 2}
	if err := parseFlags(fs, args, min); err != nil {
		return err
	}
	// Auxiliary experiments (paper = false) are opt-in by exact name and
	// never part of "all": they chart behavior outside the paper's model.
	exps := []struct {
		name  string
		paper bool
		run   func(context.Context, campaign) error
	}{
		{"3", true, func(ctx context.Context, c campaign) error { return fig3(ctx, c, *nmax, false) }},
		{"4", true, func(ctx context.Context, c campaign) error { return fig3(ctx, c, *nmax, true) }},
		{"5", true, func(ctx context.Context, c campaign) error { return fig5(ctx, c, *quick) }},
		{"6", true, func(ctx context.Context, c campaign) error { return fig6(ctx, c, *fig6max) }},
		{"scenarios", false, scenariosExp},
		{"churn", false, churnExp},
		{"predict", false, func(ctx context.Context, c campaign) error { return predictExp(ctx, c, *fig6max) }},
	}
	selected := func(name string, paper bool) bool {
		return *fig == name || paper && (*fig == "all" || *fig == "fig"+name)
	}
	// Unknown -fig values fail loudly before any work: a typo ("-fig 7",
	// "-fig figure6") would otherwise select nothing and exit 0 — easy to
	// read as "done" at the end of a long scripted campaign.
	known := *fig == "all" || *fig == "traj"
	for _, e := range exps {
		known = known || selected(e.name, e.paper)
	}
	if !known {
		return usagef("unknown -fig %q; valid values: 3, 4, 5, 6 (optionally fig-prefixed), all, traj, scenarios, churn, predict", *fig)
	}
	eng, err := harness.ParseEngine(*engine)
	if err != nil {
		return usageError{err}
	}

	// Observability: with -metrics or -debug-addr the parallel trial
	// runner records per-trial wall times, interaction histograms,
	// convergence counters, and the resilience counters
	// (timeouts/canceled/resumed); /debug/vars and /metrics expose them
	// live during a long sweep, and the snapshot lands next to the CSV/JSON
	// results — including on an interrupted exit.
	reg := registry("kpart_experiments", *metrics || *debugAddr != "")
	if reg.Enabled() {
		harness.SetMetrics(reg)
	}
	if err := serveDebug(*debugAddr); err != nil {
		return err
	}

	if *quick {
		if *trials == harness.DefaultTrials {
			*trials = 10
		}
		if *nmax == 60 {
			*nmax = 30
		}
		if *fig6max == 12 {
			*fig6max = 6
		}
	}
	flushMetrics := func() error {
		if !reg.Enabled() {
			return nil
		}
		path, err := harness.SaveSnapshotJSONL(*outDir, "metrics.jsonl", reg.Snapshot())
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		fmt.Println("wrote", path)
		return nil
	}

	c := campaign{
		opts:   harness.RunOptions{TrialTimeout: *trialTimeout},
		trials: *trials, seed: *seed, outDir: *outDir, workers: *workers, eng: eng,
	}
	for _, e := range exps {
		if !selected(e.name, e.paper) {
			continue
		}
		what, title, journal := e.name, e.name+" (auxiliary)", e.name
		if e.paper {
			what, title, journal = "figure "+e.name, "Figure "+e.name, "fig"+e.name
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", title)
		// The campaign meta string ties the journal to this exact sweep
		// shape, so -resume refuses a journal written under different
		// parameters.
		meta := fmt.Sprintf("%s seed=%d trials=%d engine=%s nmax=%d fig6max=%d quick=%t",
			journal, *seed, *trials, *engine, *nmax, *fig6max, *quick)
		err := journaled(filepath.Join(*outDir, journal+".journal"), meta, *resume, func(j *harness.Journal) error {
			c.opts.Journal = j
			return e.run(ctx, c)
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				if ferr := flushMetrics(); ferr != nil {
					return ferr
				}
			}
			return fmt.Errorf("%s: %w", what, err)
		}
		fmt.Printf("(%s done in %v)\n\n", what, time.Since(start).Round(time.Millisecond))
	}
	if err := flushMetrics(); err != nil {
		return err
	}
	if *fig == "traj" {
		start := time.Now()
		fmt.Println("=== Convergence trajectories (auxiliary) ===")
		if err := traj(c); err != nil {
			return fmt.Errorf("traj: %w", err)
		}
		fmt.Printf("(trajectories done in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// campaign is what every experiment of one run shares.
type campaign struct {
	opts    harness.RunOptions
	trials  int
	seed    uint64
	outDir  string
	workers int
	eng     harness.Engine
}

// save writes tbl as <name>.csv into the output directory and, when doc
// is set, doc as <name>.json next to it.
func (c campaign) save(name string, tbl *report.Table, doc *harness.ResultDoc) error {
	path, err := harness.WriteCSVFile(c.outDir, name+".csv", tbl)
	if err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if doc == nil {
		return nil
	}
	doc.Experiment, doc.Seed, doc.Trials = name, c.seed, c.trials
	jpath, err := harness.SaveJSON(c.outDir, name+".json", *doc)
	if err != nil {
		return err
	}
	fmt.Println("wrote", jpath)
	return nil
}

// grid runs a figure's grid of (n, k) cells with point IDs from first.
// A figure's first ID must not move: SeedForCell derives every trial's
// seed from its point's ID, and journals key trials by SpecKey, which
// includes the seed.
func (c campaign) grid(ctx context.Context, first uint64, grouping bool, cells [][2]int) ([]harness.Point, error) {
	base := harness.SweepSpec{
		TrialSpec: harness.TrialSpec{Seed: c.seed, Grouping: grouping, Engine: c.eng},
		Trials:    c.trials, PointID: first, Workers: c.workers,
	}
	return harness.RunGridCtx(ctx, base, cells, c.opts)
}

// byK splits grid points into one series per k of ks, in order. A k
// without points keeps its series, with nil Points.
func byK(ks []int, pts []harness.Point) []harness.KSeries {
	series := make([]harness.KSeries, len(ks))
	for i, k := range ks {
		series[i].K = k
		for _, pt := range pts {
			if pt.K == k {
				series[i].Points = append(series[i].Points, pt)
			}
		}
	}
	return series
}

// fig6Points runs the Figure 6 grid: n = 960 and every k up to kmax
// among the divisors of 960.
func (c campaign) fig6Points(ctx context.Context, kmax int) ([]harness.Point, error) {
	var cells [][2]int
	for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24} {
		if k <= kmax {
			cells = append(cells, [2]int{960, k})
		}
	}
	return c.grid(ctx, 1<<21, false, cells)
}

// traj renders the auxiliary convergence-trajectory experiment: mean
// group-size spread over elapsed interactions, per k.
func traj(c campaign) error {
	cfg := harness.TrajectoryConfig{N: 60, Ks: []int{3, 4, 6}, Trials: min(c.trials, 30), Seed: c.seed}
	series, err := harness.RunTrajectory(cfg)
	if err != nil {
		return err
	}
	fmt.Print(harness.TrajectoryChart(series).String())
	return c.save("trajectory", harness.TrajectoryTable(series), nil)
}

// fig3 draws Figure 3, or with grouping Figure 4: n from k+2 to nmax for
// k in {4, 6, 8}. Below k+2 the first grouping leaves no remainder worth
// plotting; the paper's curves start there.
func fig3(ctx context.Context, c campaign, nmax int, grouping bool) error {
	ks := []int{4, 6, 8}
	var cells [][2]int
	for _, k := range ks {
		for n := k + 2; n <= nmax; n++ {
			cells = append(cells, [2]int{n, k})
		}
	}
	pts, err := c.grid(ctx, 0, grouping, cells)
	if err != nil {
		return err
	}
	series := byK(ks, pts)
	name := "fig3"
	if grouping {
		name = "fig4"
		for _, s := range series {
			fmt.Print(harness.GroupingBars(s).String())
			if _, err := harness.WriteCSVFile(c.outDir, fmt.Sprintf("fig4_k%d.csv", s.K), harness.GroupingTable(s)); err != nil {
				return err
			}
		}
	} else {
		chart := &report.LineChart{
			Title:  "Figure 3: interactions to stabilize vs population size n",
			XLabel: "n", YLabel: "mean interactions",
		}
		for _, s := range series {
			chart.Series = append(chart.Series, harness.ToSeries(s))
		}
		fmt.Print(chart.String())
		// The paper's observation: jaggedness with period k.
		for _, s := range series {
			fmt.Printf("k=%d: local dips where n mod k is small — inspect the CSV column n mod %d\n", s.K, s.K)
		}
	}
	return c.save(name, harness.SweepTable(series), &harness.ResultDoc{Series: series})
}

// fig5 draws Figure 5: n = 120·f for f = 1…8 (quick: 60·f for f = 1…4)
// and k in {3, 4, 5, 6}, so every n is divisible by every k.
func fig5(ctx context.Context, c campaign, quick bool) error {
	ks := []int{3, 4, 5, 6}
	unit, factors := 120, 8
	if quick {
		unit, factors = 60, 4
	}
	var cells [][2]int
	for _, k := range ks {
		for f := 1; f <= factors; f++ {
			cells = append(cells, [2]int{unit * f, k})
		}
	}
	pts, err := c.grid(ctx, 1<<20, false, cells)
	if err != nil {
		return err
	}
	series := byK(ks, pts)
	chart := &report.LineChart{
		Title:  "Figure 5: interactions vs n (n mod k = 0)",
		XLabel: "n", YLabel: "mean interactions",
	}
	for _, s := range series {
		chart.Series = append(chart.Series, harness.ToSeries(s))
	}
	fmt.Print(chart.String())
	// Growth analysis: super-linear but sub-exponential in n.
	for _, s := range series {
		rs := harness.ToSeries(s)
		readout, err := harness.GrowthReadout(fmt.Sprintf("fig5 k=%d", s.K), rs.X, rs.Y)
		if err != nil {
			return err
		}
		fmt.Println(readout)
	}
	return c.save("fig5", harness.SweepTable(series), &harness.ResultDoc{Series: series})
}

func fig6(ctx context.Context, c campaign, kmax int) error {
	pts, err := c.fig6Points(ctx, kmax)
	if err != nil {
		return err
	}
	s := harness.Fig6Series(pts)
	chart := &report.LineChart{
		Title:  "Figure 6: interactions vs k at n=960 (log scale)",
		XLabel: "k", YLabel: "mean interactions", LogY: true,
		Series: []report.Series{s},
	}
	fmt.Print(chart.String())
	readout, err := harness.GrowthReadout("fig6", s.X, s.Y)
	if err != nil {
		return err
	}
	fmt.Println(readout)
	fmt.Print(harness.Fig6Table(pts).String())
	return c.save("fig6", harness.Fig6Table(pts), &harness.ResultDoc{Points: pts})
}

// predictExp is the end-to-end predicted-vs-measured experiment: it
// re-simulates the fig6 grid (interactions vs k at n = 960, with the
// same journal/resume plumbing as the figure) and overlays the
// analytical twin's predictions for the same points, charting both and
// tabulating the per-point disagreement. The twin never sees the trial
// data — the rel_err column is a genuine out-of-sample comparison, the
// wide-grid companion to the committed gate in `make twin-check`.
func predictExp(ctx context.Context, c campaign, kmax int) error {
	pts, err := c.fig6Points(ctx, kmax)
	if err != nil {
		return err
	}

	sim := harness.Fig6Series(pts)
	sim.Name = "simulated " + sim.Name
	pred := report.Series{Name: "predicted (twin)"}
	tbl := report.NewTable("n", "k", "model", "fidelity",
		"predicted", "interval_low", "interval_high", "sim_mean", "sim_ci95", "rel_err")
	worst := 0.0
	for _, pt := range pts {
		pr, err := twin.Auto(twin.Spec{N: pt.N, K: pt.K})
		if err != nil {
			return fmt.Errorf("predict n=%d k=%d: %w", pt.N, pt.K, err)
		}
		re := math.Abs(pr.ExpectedInteractions-pt.Mean) / (1 + math.Abs(pt.Mean))
		if re > worst {
			worst = re
		}
		pred.X = append(pred.X, float64(pt.K))
		pred.Y = append(pred.Y, pr.ExpectedInteractions)
		tbl.AddRow(pt.N, pt.K, pr.Model, string(pr.Fidelity),
			pr.ExpectedInteractions, pr.IntervalLow, pr.IntervalHigh, pt.Mean, pt.CI95, re)
	}

	chart := &report.LineChart{
		Title:  "Predicted vs simulated interactions at n=960 (log scale)",
		XLabel: "k", YLabel: "mean interactions", LogY: true,
		Series: []report.Series{sim, pred},
	}
	fmt.Print(chart.String())
	fmt.Print(tbl.String())
	fmt.Printf("worst rel_err %.4f (mean-field budget %.2f)\n", worst, twin.RelErrFluid)
	return c.save("predict", tbl, &harness.ResultDoc{Points: pts})
}

// scenarioCombo is one cell of the topology × fairness grid.
type scenarioCombo struct {
	label string
	topo  harness.TopologySpec
	fair  harness.Fairness
}

// scenariosExp sweeps topology × fairness at a fixed (n, k) and tallies
// outcomes: converged, frozen (the detector proved no productive
// interaction can change a group again), or capped (the run burned the
// interaction budget — the weak adversary's stall shows up here). Of the
// frozen trials it counts those left non-uniform (spread > 1) and the
// worst spread: ablation A4, the complete-graph assumption at work.
func scenariosExp(ctx context.Context, c campaign) error {
	const (
		n    = 12
		k    = 3
		capI = 1_000_000
	)
	combos := []scenarioCombo{
		{"complete/uniform", harness.TopologySpec{}, harness.FairnessUniform},
		{"complete/weak", harness.TopologySpec{}, harness.FairnessWeak},
		{"ring/uniform", harness.TopologySpec{Kind: harness.TopologyRing}, harness.FairnessUniform},
		{"ring/weak", harness.TopologySpec{Kind: harness.TopologyRing}, harness.FairnessWeak},
		{"star/uniform", harness.TopologySpec{Kind: harness.TopologyStar}, harness.FairnessUniform},
		{"grid/uniform", harness.TopologySpec{Kind: harness.TopologyGrid, Rows: 3, Cols: 4}, harness.FairnessUniform},
		{"regular3/uniform", harness.TopologySpec{Kind: harness.TopologyRegular, Degree: 3, GraphSeed: 1}, harness.FairnessUniform},
	}
	trials := c.trials
	var specs []harness.TrialSpec
	for ci, sc := range combos {
		for t := 0; t < trials; t++ {
			specs = append(specs, harness.TrialSpec{
				N: n, K: k,
				Seed:            rng.StreamSeed(c.seed, uint64(ci), uint64(t)),
				MaxInteractions: capI,
				Engine:          harness.EngineAgent,
				Topology:        sc.topo,
				Fairness:        sc.fair,
			})
		}
	}
	results, err := harness.RunManyCtx(ctx, specs, c.workers, c.opts)
	if err != nil {
		return err
	}

	tbl := report.NewTable("scenario", "trials", "converged", "frozen", "nonuniform", "worst_spread", "capped", "mean_interactions")
	csv := report.NewTable("scenario", "topology", "fairness", "trials", "converged", "frozen", "nonuniform", "worst_spread", "capped", "mean_interactions")
	for ci, sc := range combos {
		var converged, frozen, nonuniform, worst int
		var sumI uint64
		for t := 0; t < trials; t++ {
			r := results[ci*trials+t]
			if r.Converged {
				converged++
			}
			if r.Frozen {
				frozen++
				if r.Spread > 1 {
					nonuniform++
				}
				worst = max(worst, r.Spread)
			}
			sumI += r.Interactions
		}
		capped := trials - converged - frozen
		meanI := float64(sumI) / float64(trials)
		tbl.AddRow(sc.label, trials, converged, frozen, nonuniform, worst, capped, meanI)
		csv.AddRow(sc.label, sc.topo.String(), sc.fair.String(), trials, converged, frozen, nonuniform, worst, capped, meanI)
	}
	fmt.Printf("topology × fairness at n=%d k=%d (cap %d interactions/trial)\n", n, k, capI)
	tbl.WriteTo(os.Stdout)
	fmt.Println("capped = burned the budget without converging or freezing (the weak adversary's stall)")
	return c.save("scenarios", csv, nil)
}

// churnExp charts a survival curve: fraction of trials that still reach
// the uniform partition as the number of crash events grows. Crashes
// remove agents without warning; once the surviving population's
// committed groups can no longer be rebalanced, the run freezes — the
// protocol is not self-stabilizing (a documented finding, not a bug).
func churnExp(ctx context.Context, c campaign) error {
	const (
		n    = 30
		k    = 3
		capI = 5_000_000
	)
	events := []int{0, 1, 2, 3, 4}
	trials := c.trials
	var specs []harness.TrialSpec
	for ei, e := range events {
		for t := 0; t < trials; t++ {
			spec := harness.TrialSpec{
				N: n, K: k,
				Seed:            rng.StreamSeed(c.seed, uint64(ei), uint64(t)),
				MaxInteractions: capI,
				Engine:          harness.EngineAgent,
			}
			if e > 0 {
				spec.Churn = harness.ChurnSpec{
					At: 2000, Interval: 2000, Events: e, Leaves: 1, Crash: true,
				}
			}
			specs = append(specs, spec)
		}
	}
	results, err := harness.RunManyCtx(ctx, specs, c.workers, c.opts)
	if err != nil {
		return err
	}

	tbl := report.NewTable("crash_events", "final_n", "trials", "converged", "frozen", "survival")
	chart := &report.LineChart{
		Title:  fmt.Sprintf("Churn survival: fraction converged vs crash events (n=%d, k=%d)", n, k),
		XLabel: "crash events", YLabel: "survival",
	}
	series := report.Series{Name: "survival"}
	for ei, e := range events {
		var converged, frozen int
		for t := 0; t < trials; t++ {
			r := results[ei*trials+t]
			if r.Converged {
				converged++
			}
			if r.Frozen {
				frozen++
			}
		}
		survival := float64(converged) / float64(trials)
		tbl.AddRow(e, n-e, trials, converged, frozen, survival)
		series.X = append(series.X, float64(e))
		series.Y = append(series.Y, survival)
	}
	chart.Series = []report.Series{series}
	fmt.Print(chart.String())
	tbl.WriteTo(os.Stdout)
	return c.save("churn", tbl, nil)
}
