package main

// kpart exact computes EXACT expected stabilization times for small
// populations by solving the configuration Markov chain under the
// uniform-random scheduler, and optionally contrasts them with simulation
// means — a bias check for the whole simulation stack, and the exact
// version of Figure 3 at small n. The chain is the twin's exact rung
// (internal/twin's Lumped): the configuration chain with the g-counts
// dropped, which Lemma 1 makes isomorphic to the full one, so `configs`
// counts configurations either way. A population whose chain exceeds
// twin.DefaultStateBudget states fails.
//
//	kpart exact -k 3 -nmax 12 [-sim 2000] [-seed 5]

import (
	"context"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/twin"
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
	if *nmin > *nmax {
		return usagef("-nmin %d exceeds -nmax %d", *nmin, *nmax)
	}
	if err := harness.ValidatePartition(*nmin, *k); err != nil {
		return usageError{err}
	}

	rung := twin.NewLumped()
	tbl := report.NewTable("n", "configs", "exact_E[interactions]", "sim_mean", "sim_ci95", "zscore")
	for n := *nmin; n <= *nmax; n++ {
		pr, err := rung.Predict(twin.Spec{N: n, K: *k})
		if err != nil {
			return err
		}
		exact := pr.ExpectedInteractions
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
		tbl.AddRow(n, pr.States, exact, simMean, simCI, z)
	}
	fmt.Printf("Exact expected interactions to stability, k=%d (uniform-random scheduler)\n", *k)
	tbl.WriteTo(os.Stdout)
	if *trials > 0 {
		fmt.Println("\nzscore = (simulated mean − exact) / standard error; |z| ≲ 3 means the")
		fmt.Println("simulator is unbiased at this point to Monte-Carlo resolution.")
	}
	return nil
}
