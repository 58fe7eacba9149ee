package main

// kpart exact computes EXACT expected stabilization times for small
// populations by solving the configuration Markov chain under the
// uniform-random scheduler (internal/markov), and optionally contrasts
// them with simulation means — a bias check for the whole simulation
// stack, and the exact version of Figure 3 at small n.
//
//	kpart exact -k 3 -nmax 12 [-sim 2000] [-seed 5]

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/markov"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
)

func exactCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		k      = fs.Int("k", 3, "number of groups")
		nmin   = fs.Int("nmin", 3, "smallest population")
		nmax   = fs.Int("nmax", 12, "largest population")
		trials = fs.Int("sim", 2000, "simulation trials per n for comparison (0 = exact only)")
		seed   = fs.Uint64("seed", 5, "simulation seed")
	)
	if err := parseFlags(fs, args, map[string]int{"k": 2, "nmin": 3, "nmax": 3, "sim": 0}); err != nil {
		return err
	}

	p, err := core.New(*k)
	if err != nil {
		return usageError{err}
	}
	tbl := report.NewTable("n", "configs", "exact_E[interactions]", "sim_mean", "sim_ci95", "zscore")
	for n := *nmin; n <= *nmax; n++ {
		ch, err := markov.New(p, n)
		if err != nil {
			return err
		}
		E, err := ch.HittingTimes(1e-10, 0)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		exact := E[0]
		simMean, simCI := "", ""
		z := ""
		if *trials > 0 {
			xs := make([]float64, *trials)
			for t := 0; t < *trials; t++ {
				res, err := harness.RunTrial(harness.TrialSpec{
					N: n, K: *k, Seed: rng.StreamSeed(*seed, uint64(n), uint64(t)),
				})
				if err != nil {
					return err
				}
				xs[t] = float64(res.Interactions)
			}
			s, _ := stats.Summarize(xs)
			ci := stats.CI95(xs)
			simMean = report.FormatFloat(s.Mean)
			simCI = report.FormatFloat(ci)
			if ci > 0 {
				z = report.FormatFloat((s.Mean - exact) / (ci / 1.96))
			}
		}
		tbl.AddRow(n, len(ch.Graph.Nodes), exact, simMean, simCI, z)
	}
	fmt.Printf("Exact expected interactions to stability, k=%d (uniform-random scheduler)\n", *k)
	tbl.WriteTo(os.Stdout)
	if *trials > 0 {
		fmt.Println("\nzscore = (simulated mean − exact) / standard error; |z| ≲ 3 means the")
		fmt.Println("simulator is unbiased at this point to Monte-Carlo resolution.")
	}
	return nil
}
