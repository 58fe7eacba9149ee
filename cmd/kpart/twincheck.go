package main

// kpart twin-check is the analytical twin's accuracy gate: it holds the
// surrogate ladder (internal/twin) to its documented error budgets
// against the references committed in TWIN_baseline.json.
//
// The gate has two legs, one per rung:
//
//   - exact leg: the lumped chain is re-solved live and compared against
//     internal/markov's full-configuration chain, point by point; the
//     worst relative error across the mean, the std, and every milestone
//     must stay within twin.RelErrExact.
//
//   - sim leg: the mean-field rung is re-answered live and compared
//     against the committed multi-trial simulation summaries; the worst
//     error across the mean and the milestones (on the global timescale)
//     must stay within twin.RelErrFluid.
//
// Only predictions run at gate time — the expensive simulation side is
// replayed from the baseline file. `-write` regenerates that side
// deterministically (the root seed and trial count are committed with
// each point) after a legitimate change to the trial pipeline;
// `-report-only` prints the same comparison without failing, which is
// the flavor `make check` runs so tier-1 stays green while `make
// twin-check` stays a hard gate.
//
//	kpart twin-check [-baseline TWIN_baseline.json] [-report-only]
//	kpart twin-check -write [-trials 2000] [-seed 20260807]

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/twin"
)

// gridPoint names one (n, k) of the exact leg; the reference is
// recomputed live, so nothing else needs committing.
type gridPoint struct {
	N int `json:"n"`
	K int `json:"k"`
}

// baselineDoc is the TWIN_baseline.json schema.
type baselineDoc struct {
	Version int `json:"version"`
	// Exact lists the points of the exact leg (lumped vs internal/markov,
	// both solved live at gate time).
	Exact []gridPoint `json:"exact"`
	// Sim holds the committed simulation references of the fluid leg.
	Sim []twin.BaselinePoint `json:"sim"`
}

// defaultExactGrid covers r = 0 and r > 0 for k = 2..4 at populations
// small enough for the full configuration chain — the same envelope the
// package tests use.
var defaultExactGrid = []gridPoint{
	{6, 2}, {7, 2}, {6, 3}, {7, 3}, {8, 3}, {9, 3}, {8, 4}, {9, 4},
}

// defaultSimGrid is the fluid leg's spec grid: populations beyond the
// markov reference across k = 2..5, all with milestones so the whole
// trajectory is gated, not just the endpoint.
var defaultSimGrid = []twin.Spec{
	{N: 60, K: 2, Milestones: true},
	{N: 90, K: 3, Milestones: true},
	{N: 150, K: 3, Milestones: true},
	{N: 120, K: 4, Milestones: true},
	{N: 100, K: 5, Milestones: true},
}

func twinCheckCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		path       = fs.String("baseline", "TWIN_baseline.json", "baseline file to check against (or write)")
		reportOnly = fs.Bool("report-only", false, "print the comparison but always exit 0")
		write      = fs.Bool("write", false, "regenerate the simulation side of the baseline, then report")
		// 2000 trials put the references' 95% half-widths near 3% of the
		// mean — the stabilization time is heavy-tailed, and a reference
		// noisier than ~a third of the 10% budget would gate on luck. At
		// these populations regeneration still takes well under a minute.
		trials = fs.Int("trials", 2000, "-write: simulation trials per grid point")
		seed   = fs.Uint64("seed", 20260807, "-write: root seed for the reference trials")
	)
	if err := parseFlags(fs, args, map[string]int{"trials": 1}); err != nil {
		return err
	}

	var doc baselineDoc
	if *write {
		d, err := generate(*trials, *seed)
		if err != nil {
			return err
		}
		doc = d
		// Stable formatting, so regeneration diffs cleanly.
		if err := writeJSON(*path, doc); err != nil {
			return err
		}
		fmt.Println("wrote", *path)
	} else {
		b, err := os.ReadFile(*path)
		if err != nil {
			return fmt.Errorf("reading baseline (run with -write to create it): %w", err)
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("parsing %s: %w", *path, err)
		}
	}

	exactBad, err := checkExact(doc.Exact)
	if err != nil {
		return err
	}
	simBad, err := checkSim(doc.Sim)
	if err != nil {
		return err
	}
	if violations := exactBad + simBad; violations > 0 {
		fmt.Printf("\ntwin-check: %d point(s) outside the error budget\n", violations)
		if !*reportOnly {
			return errVerdict
		}
		fmt.Println("(report-only: not failing the build)")
		return nil
	}
	fmt.Println("\ntwin-check: all points within budget")
	return nil
}

// checkExact runs the exact leg and prints its table, returning the
// number of budget violations.
func checkExact(grid []gridPoint) (int, error) {
	fmt.Printf("Exact leg: lumped rung vs internal/markov (budget %.2g)\n", float64(twin.RelErrExact))
	tbl := report.NewTable("n", "k", "mean", "exact_mean", "max_rel_err", "verdict")
	bad := 0
	for _, g := range grid {
		rep, err := twin.CrossValidateExact(g.N, g.K)
		if err != nil {
			return 0, fmt.Errorf("exact leg n=%d k=%d: %w", g.N, g.K, err)
		}
		verdict := "ok"
		if rep.MaxRelErr > twin.RelErrExact {
			verdict = "FAIL"
			bad++
		}
		tbl.AddRow(g.N, g.K, rep.Mean, rep.ExactMean, rep.MaxRelErr, verdict)
	}
	tbl.WriteTo(os.Stdout)
	return bad, nil
}

// checkSim runs the fluid leg against the committed references and
// prints its table, returning the number of budget violations.
func checkSim(points []twin.BaselinePoint) (int, error) {
	fmt.Printf("\nSim leg: mean-field rung vs committed trial summaries (budget %.2g)\n",
		float64(twin.RelErrFluid))
	tbl := report.NewTable("n", "k", "trials", "mean", "sim_mean", "sim_ci95", "rel_err", "verdict")
	model := twin.NewMeanField()
	bad := 0
	for _, bp := range points {
		rep, err := twin.CompareBaseline(model, bp)
		if err != nil {
			return 0, fmt.Errorf("sim leg n=%d k=%d: %w", bp.N, bp.K, err)
		}
		verdict := "ok"
		if rep.RelErr > twin.RelErrFluid {
			verdict = "FAIL"
			bad++
		}
		tbl.AddRow(bp.N, bp.K, bp.Trials, rep.Mean, rep.SimMean, rep.SimHalf95, rep.RelErr, verdict)
	}
	tbl.WriteTo(os.Stdout)
	return bad, nil
}

// generate builds a fresh baseline: the exact grid is static (its
// references are recomputed at gate time) and the sim grid is simulated
// now, deterministically from (seed, trials).
func generate(trials int, seed uint64) (baselineDoc, error) {
	doc := baselineDoc{Version: 1, Exact: defaultExactGrid}
	for _, s := range defaultSimGrid {
		fmt.Printf("simulating n=%d k=%d (%d trials)...\n", s.N, s.K, trials)
		bp, err := twin.SimBaseline(s, trials, seed)
		if err != nil {
			return doc, fmt.Errorf("generating n=%d k=%d: %w", s.N, s.K, err)
		}
		doc.Sim = append(doc.Sim, bp)
	}
	return doc, nil
}
