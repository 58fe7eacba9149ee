package main

// kpart run: one simulation of the uniform k-partition protocol,
// reporting interactions to stability, the final group sizes, and
// optionally a full interaction trace in JSON Lines.
//
//	kpart run -n 24 -k 4 [-seed 1] [-max 0] [-rules] [-dot] [-trace out.jsonl] [-v]
//	          [-metrics metrics.jsonl] [-debug-addr :6060] [-progress N]
//
// -metrics writes an internal/obs snapshot (per-rule firing counts,
// phase timings, engine totals) as JSONL after the run; -debug-addr
// serves live pprof and /debug/vars while the run is hot; -v adds the
// obs Progress reporter, the per-grouping marks and the rule-family
// tally. The run fails (exit 1) if it hits the interaction cap before
// stabilizing.

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		n         = fs.Int("n", 24, "population size (>= 3)")
		k         = fs.Int("k", 4, "number of groups (>= 2)")
		seed      = fs.Uint64("seed", 1, "random scheduler seed")
		maxI      = fs.Uint64("max", 0, "interaction cap (0 = engine default)")
		rules     = fs.Bool("rules", false, "print the protocol's transition rules and exit")
		dot       = fs.Bool("dot", false, "print the protocol's state machine as Graphviz DOT and exit")
		tracePath = fs.String("trace", "", "write a JSONL interaction trace to this file")
		verbose   = fs.Bool("v", false, "print live progress and per-grouping marks")
		metrics   = fs.String("metrics", "", "write an obs metrics snapshot (JSONL) to this file")
		debugAddr = fs.String("debug-addr", "", "serve pprof and /debug/vars on this address (e.g. :6060)")
		progressN = fs.Uint64("progress", 0, "interactions between progress reports (0 = auto with -v)")
	)
	if err := parseFlags(fs, args, map[string]int{"n": 3, "k": 2}); err != nil {
		return err
	}

	p, err := core.New(*k)
	if err != nil {
		return usageError{err}
	}
	if *rules {
		fmt.Printf("%s: %d states (3k-2 = %d), designated initial state %q\n",
			p.Name(), p.NumStates(), 3**k-2, p.StateName(p.InitialState()))
		fmt.Print(protocol.FormatRules(p, protocol.Rules(p)))
		return nil
	}
	if *dot {
		return protocol.WriteDot(os.Stdout, p)
	}

	// The registry is enabled whenever someone will read it: a snapshot
	// file, or live /debug/vars. With neither, it is the no-op registry:
	// the milestone observer only keeps the marks -v prints, and the rule
	// tally is not attached at all.
	reg := registry("kpart", *metrics != "" || *debugAddr != "")
	if err := serveDebug(*debugAddr); err != nil {
		return err
	}

	target, err := p.TargetCounts(*n)
	if err != nil {
		return usageError{err}
	}
	pop := population.New(p, *n)
	opts := sim.Options{MaxInteractions: *maxI}

	ms := obs.NewMilestones(reg, p.G(*k), nil)
	opts.Hooks = append(opts.Hooks, ms)

	// The tally is printed only under -v. An unmarked step function keeps
	// sim.Run off its fused loop, so plain runs do not attach it.
	var tally *core.Tally
	if *verbose {
		tally = core.NewTally(p)
		opts.Hooks = append(opts.Hooks, sim.StepFunc(func(pop *population.Population, s sim.StepInfo) {
			tally.Observe(s.Before.P, s.Before.Q)
		}))
	}

	if reg.Enabled() {
		opts.Hooks = append(opts.Hooks, newRuleTally(reg, p))
	}
	if *verbose || *progressN > 0 {
		capI := *maxI
		if capI == 0 {
			capI = sim.DefaultMaxInteractions
		}
		opts.Hooks = append(opts.Hooks, &obs.Progress{
			Every: *progressN, // 0 = obs.DefaultProgressEvery
			Cap:   capI,
			Label: fmt.Sprintf("n=%d k=%d", *n, *k),
		})
	}

	if *tracePath != "" {
		traceFile, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		opts.Hooks = append(opts.Hooks, &trace.Writer{W: traceFile})
	}

	start := time.Now()
	res, err := sim.Run(pop, sched.NewRandom(*seed), sim.NewCountTarget(p.CanonMap(), target), opts)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("protocol   %s (%d states)\n", p.Name(), p.NumStates())
	fmt.Printf("population n=%d, seed=%d\n", *n, *seed)
	if res.Converged {
		fmt.Printf("stabilized after %d interactions (%d productive)\n", res.Interactions, res.Productive)
	} else {
		fmt.Printf("NOT stable after %d interactions (cap reached)\n", res.Interactions)
	}
	fmt.Printf("group sizes %v (spread %d)\n", res.GroupSizes, res.Spread())
	fmt.Printf("final config %s\n", pop)
	if *verbose {
		rate := float64(res.Interactions) / wall.Seconds()
		fmt.Printf("wall time %v (%.3g interactions/sec), productive %.1f%%\n",
			wall.Round(time.Microsecond), rate, 100*float64(res.Productive)/float64(res.Interactions))
		for i, m := range ms.Marks() {
			fmt.Printf("  grouping %d complete at interaction %d\n", i+1, m)
		}
		fmt.Println("rule-family tally:")
		for r := core.RuleKind(0); int(r) < core.NumRuleKinds; r++ {
			if c := tally.Counts[r]; c > 0 {
				fmt.Printf("  %-6s %d\n", r, c)
			}
		}
		fmt.Printf("demolition fraction of productive interactions: %.4f\n", tally.DemolitionFraction())
	}
	if *metrics != "" {
		if err := reg.Snapshot().WriteFile(*metrics); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot %s\n", *metrics)
	}
	if !res.Converged {
		return errVerdict
	}
	return nil
}

// newRuleTally wires the obs per-rule counters to Algorithm 1's rule
// families via core's pair classifier.
func newRuleTally(reg *obs.Registry, p *core.Protocol) *obs.RuleTally {
	names := make([]string, 0, core.NumRuleKinds-1)
	for kind := core.RuleNull + 1; int(kind) < core.NumRuleKinds; kind++ {
		names = append(names, kind.String())
	}
	return obs.NewRuleTally(reg, names, func(a, b protocol.State) int {
		return int(p.ClassifyPair(a, b)) - 1
	})
}
