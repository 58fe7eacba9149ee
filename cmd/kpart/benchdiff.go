package main

// kpart bench-diff is the benchmark regression gate: it compares a
// current benchmark document (BENCH_kpart.json or BENCH_serve.json)
// against a committed baseline and fails (exit 1) when a gated metric
// worsened past its threshold (throughput-class metrics gate at 20%,
// latency-class at 75%; see internal/benchdiff for the policy and
// DESIGN.md for its rationale).
//
//	kpart bench-diff [-report-only] [-v] baseline.json current.json
//
// `make bench-diff` produces fresh documents in a temp directory and
// diffs them against the committed baselines; -report-only (used by
// `make check`) prints the comparison without failing the build, so the
// gate is informative on noisy hardware and enforcing where the operator
// opts in.

import (
	"context"
	"fmt"
	"os"

	"repro/internal/benchdiff"
)

func benchDiffCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		reportOnly = fs.Bool("report-only", false, "print the comparison but always exit 0")
		verbose    = fs.Bool("v", false, "show every compared metric, not just gated/moved ones")
	)
	if err := parseFlags(fs, args, nil); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usagef("usage: kpart bench-diff [-report-only] [-v] baseline.json current.json")
	}

	base, err := benchdiff.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := benchdiff.LoadFile(fs.Arg(1))
	if err != nil {
		return err
	}

	findings := benchdiff.Compare(base, cur, benchdiff.DefaultRules())
	fmt.Printf("bench-diff: %s -> %s\n", fs.Arg(0), fs.Arg(1))
	benchdiff.Render(os.Stdout, findings, *verbose)

	if reg := benchdiff.Regressions(findings); len(reg) > 0 {
		if *reportOnly {
			fmt.Printf("bench-diff: %d regression(s) found (report-only mode, not failing)\n", len(reg))
			return nil
		}
		return fmt.Errorf("%d regression(s) past threshold", len(reg))
	}
	return nil
}
