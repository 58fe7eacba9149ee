package main

// kpart trace analyzes a JSONL interaction trace produced by
// `kpart run -trace`: it re-validates the trace by deterministic replay,
// tallies the Algorithm 1 rule families, and reports scheduler-fairness
// metrics (pair-coverage dispersion, starvation gaps).
//
//	kpart run -n 24 -k 4 -trace run.jsonl
//	kpart trace -k 4 run.jsonl

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/report"
	"repro/internal/trace"
)

func traceCmd(_ context.Context, args []string) error {
	fs := newFlags()
	k := fs.Int("k", 0, "number of groups the trace was produced with (required)")
	if err := parseFlags(fs, args, map[string]int{"k": 2}); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("usage: kpart trace -k <groups> <trace.jsonl>")
	}
	p, err := core.New(*k)
	if err != nil {
		return usageError{err}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, events, err := trace.Decode(f)
	if err != nil {
		return err
	}
	fmt.Printf("trace: protocol %q, n=%d, %d events\n", hdr.Protocol, hdr.N, len(events))

	pop, err := trace.Replay(p, hdr, events)
	if err != nil {
		return fmt.Errorf("replay validation failed: %w", err)
	}
	fmt.Printf("replay: OK — final configuration %s\n", pop)
	if p.IsStable(pop.Counts()) {
		fmt.Println("final configuration is stable (uniform partition reached)")
	} else {
		fmt.Println("final configuration is NOT stable (trace ends mid-run)")
	}
	if err := p.CheckInvariant(pop.Counts()); err != nil {
		return fmt.Errorf("Lemma 1 violated at final configuration: %w", err)
	}

	// Rule-family tally.
	tally := core.NewTally(p)
	meter := fairness.NewMeter(hdr.N)
	for _, e := range events {
		tally.Observe(e.BeforeP, e.BeforeQ)
		meter.Record(e.I, e.J)
	}
	tbl := report.NewTable("rule", "count", "share")
	total := float64(tally.Total())
	for r := core.RuleKind(0); int(r) < core.NumRuleKinds; r++ {
		if c := tally.Counts[r]; c > 0 {
			tbl.AddRow(r.String(), c, fmt.Sprintf("%.2f%%", 100*float64(c)/total))
		}
	}
	fmt.Println("\nrule-family tally:")
	tbl.WriteTo(os.Stdout)
	fmt.Printf("demolition fraction of productive interactions: %.4f\n", tally.DemolitionFraction())

	// Fairness metrics.
	rep := meter.Report()
	fmt.Println("\nscheduler fairness over this prefix:")
	fmt.Printf("  pairs scheduled     %d/%d (starved: %d)\n", rep.Pairs-rep.StarvedPairs, rep.Pairs, rep.StarvedPairs)
	fmt.Printf("  pair-count CV       %.4f\n", rep.CV)
	fmt.Printf("  pair-count Gini     %.4f\n", rep.Gini)
	fmt.Printf("  longest pair gap    %d interactions\n", rep.MaxGap)
	fmt.Printf("  agent-count CV      %.4f\n", rep.AgentCV)
	return nil
}
