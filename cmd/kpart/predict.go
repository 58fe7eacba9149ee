package main

// kpart predict answers "how long until a population of n agents
// stabilizes into k groups?" analytically, without simulating: it asks
// the twin ladder (internal/twin) for the highest-fidelity rung that can
// afford the question — the exact lumped chain for small populations,
// the mean-field fluid model with an exact endgame correction for large
// ones — and prints the prediction with its error bars and provenance.
// The same computation backs POST /v1/predict in kpart serve.
//
//	kpart predict -n 960 -k 4 [-milestones] [-json]

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/report"
	"repro/internal/twin"
)

func predictCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		n          = fs.Int("n", 960, "population size")
		k          = fs.Int("k", 3, "number of groups")
		milestones = fs.Bool("milestones", false, "include per-#gk milestone expectations")
		asJSON     = fs.Bool("json", false, "emit the prediction as JSON instead of a table")
	)
	if err := parseFlags(fs, args, map[string]int{"n": 3, "k": 2}); err != nil {
		return err
	}
	spec := twin.Spec{N: *n, K: *k, Milestones: *milestones}
	if err := spec.Validate(); err != nil {
		return usageError{err}
	}
	pr, err := twin.Auto(spec)
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(pr)
	}

	fmt.Printf("Prediction for n=%d, k=%d (model %s, fidelity %s, rel-err budget %.1f%%)\n",
		pr.N, pr.K, pr.Model, pr.Fidelity, 100*pr.RelErrBudget)
	tbl := report.NewTable("metric", "interactions")
	tbl.AddRow("expected", pr.ExpectedInteractions)
	tbl.AddRow("std", pr.StdInteractions)
	tbl.AddRow("interval_low (95%)", pr.IntervalLow)
	tbl.AddRow("interval_high (95%)", pr.IntervalHigh)
	tbl.WriteTo(os.Stdout)
	if pr.States > 0 {
		fmt.Printf("(solved over %d lumped states)\n", pr.States)
	} else {
		fmt.Println("(fluid-only answer: no endgame chain fit the state budget)")
	}
	if *milestones {
		ms := report.NewTable("groups_complete", "expected_interactions")
		for j, m := range pr.Milestones {
			ms.AddRow(j+1, m)
		}
		fmt.Println("\nMilestones (expected interactions until #gk first reaches j):")
		ms.WriteTo(os.Stdout)
	}
	return nil
}
