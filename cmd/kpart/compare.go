package main

// kpart compare runs the protocol-comparison ablations (DESIGN.md
// A1–A3): the paper's exact uniform k-partition protocol against the
// repeated-bipartition construction (k = 2^h) and the approximate
// interval-splitting baseline, plus the scheduler-sensitivity ablation
// and the topology survey.
//
//	kpart compare [-n 64] [-k 4] [-trials 20] [-seed 7] [-out results]

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/report"
)

func compareCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		n      = fs.Int("n", 64, "population size")
		k      = fs.Int("k", 4, "number of groups")
		trials = fs.Int("trials", 20, "trials per contender")
		seed   = fs.Uint64("seed", 7, "root seed")
		outDir = fs.String("out", "results", "directory for CSV output")
	)
	if err := parseFlags(fs, args, map[string]int{"n": 3, "k": 2, "trials": 1}); err != nil {
		return err
	}

	// section prints one table under its heading and saves it as CSV.
	section := func(heading, csv string, tbl *report.Table) error {
		fmt.Print(heading)
		fmt.Print(tbl.String())
		path, err := harness.WriteCSVFile(*outDir, csv, tbl)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	rows, err := harness.Compare(*n, *k, *trials, *seed, 0)
	if err != nil {
		return err
	}
	if err := section(fmt.Sprintf("=== Protocol comparison at n=%d, k=%d (%d trials) ===\n", *n, *k, *trials),
		"compare.csv", harness.CompareTable(rows)); err != nil {
		return err
	}
	srows, err := harness.RunSchedulerAblation(*n, *k, *trials, *seed, 0)
	if err != nil {
		return err
	}
	if err := section(fmt.Sprintf("\n=== Scheduler ablation at n=%d, k=%d ===\n", *n, *k),
		"scheduler.csv", harness.SchedulerTable(srows)); err != nil {
		return err
	}
	trows, err := harness.RunTopologySurvey(*n, *k, *trials, *seed, 0)
	if err != nil {
		return err
	}
	return section(fmt.Sprintf("\n=== Topology survey at n=%d, k=%d (does the complete-graph assumption matter?) ===\n", *n, *k),
		"topology.csv", harness.TopologyTable(trows))
}
