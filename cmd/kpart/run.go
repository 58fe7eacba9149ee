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
// serves live pprof, /debug/vars and /metrics while the run is hot; -v
// adds the obs Progress reporter, the per-grouping marks and the
// rule-family tally. The run fails (exit 1) if it hits the interaction
// cap before stabilizing.

import (
	"context"
	"fmt"
	"io"
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
		debugAddr = fs.String("debug-addr", "", "serve pprof, /debug/vars and /metrics on this address (e.g. :6060)")
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
	// tally is attached only under -v.
	reg := registry("kpart", *metrics != "" || *debugAddr != "")
	if err := serveDebug(*debugAddr); err != nil {
		return err
	}

	target, err := p.TargetCounts(*n)
	if err != nil {
		return usageError{err}
	}
	pop := population.New(p, *n)

	var progress *obs.Progress
	if *verbose || *progressN > 0 {
		capI := *maxI
		if capI == 0 {
			capI = sim.DefaultMaxInteractions
		}
		progress = &obs.Progress{
			Every: *progressN, // 0 = obs.DefaultProgressEvery
			Cap:   capI,
			Label: fmt.Sprintf("n=%d k=%d", *n, *k),
		}
	}
	var traceW io.Writer
	if *tracePath != "" {
		traceFile, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		traceW = traceFile
	}
	obsv := newRunObservers(p, reg, *verbose, progress, traceW)

	start := time.Now()
	res, err := sim.Run(pop, sched.NewRandom(*seed), sim.NewCountTarget(p.CanonMap(), target),
		sim.Options{MaxInteractions: *maxI, Hooks: obsv.hooks})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if obsv.rules != nil {
		obsv.rules.settle(res)
	}

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
		for i, m := range obsv.marks.Marks() {
			fmt.Printf("  grouping %d complete at interaction %d\n", i+1, m)
		}
		tally := obsv.rules.tally
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

// runObservers is what kpart run attaches to sim.Run: the milestone
// observer always, the rule tally under -v or with an enabled registry,
// the progress reporter under -v or -progress, and the trace writer
// under -trace. Only the trace writer watches null steps, so every run
// without -trace keeps sim.Run's fused loop.
type runObservers struct {
	marks *obs.Milestones
	rules *ruleHook // nil when neither -v nor the registry reads it
	hooks []sim.Hook
}

// newRunObservers wires the observers of a run of p; progress and
// traceW are nil when their flags are unset.
func newRunObservers(p *core.Protocol, reg *obs.Registry, verbose bool, progress *obs.Progress, traceW io.Writer) runObservers {
	o := runObservers{marks: obs.NewMilestones(reg, p.G(p.K()), nil)}
	o.hooks = append(o.hooks, o.marks)
	if verbose || reg.Enabled() {
		o.rules = newRuleHook(reg, p)
		o.hooks = append(o.hooks, o.rules)
	}
	if progress != nil {
		o.hooks = append(o.hooks, progress)
	}
	if traceW != nil {
		o.hooks = append(o.hooks, &trace.Writer{W: traceW})
	}
	return o
}

// ruleHook counts Algorithm 1's rule firings on the productive steps of
// a run: into the core.Tally that -v prints and into reg's counters
// rule/<family> (sim/unclassified for a productive step no family
// claims), sim/productive_interactions, sim/interactions and
// sim/null_interactions. The interaction counters are live as of the
// last productive step; settle adds the null stretch after it.
type ruleHook struct {
	tally                          *core.Tally
	rules                          [core.NumRuleKinds]obs.Counter
	interactions, productive, null obs.Counter
	seen                           uint64 // interactions counted so far
}

func newRuleHook(reg *obs.Registry, p *core.Protocol) *ruleHook {
	h := &ruleHook{
		tally:        core.NewTally(p),
		interactions: reg.Counter("sim/interactions"),
		productive:   reg.Counter("sim/productive_interactions"),
		null:         reg.Counter("sim/null_interactions"),
	}
	h.rules[core.RuleNull] = reg.Counter("sim/unclassified")
	for kind := core.RuleNull + 1; int(kind) < core.NumRuleKinds; kind++ {
		h.rules[kind] = reg.Counter("rule/" + kind.String())
	}
	return h
}

// Init implements sim.Hook.
func (h *ruleHook) Init(pop *population.Population) { h.seen = pop.Interactions() }

// OnStep implements sim.Hook.
func (h *ruleHook) OnStep(pop *population.Population, s sim.StepInfo) {
	if !s.Changed {
		return
	}
	h.rules[h.tally.Observe(s.Before.P, s.Before.Q)].Inc()
	h.productive.Inc()
	at := pop.Interactions()
	h.interactions.Add(at - h.seen)
	h.null.Add(at - h.seen - 1)
	h.seen = at
}

// IgnoresNull marks OnStep as a no-op on null steps (see sim.Hook).
func (h *ruleHook) IgnoresNull() {}

// settle counts the null encounters of the finished run res: into the
// tally's null family, and into the interaction counters for the null
// stretch after the last productive step, which a capped run ends in.
func (h *ruleHook) settle(res sim.Result) {
	h.tally.Counts[core.RuleNull] += res.Interactions - res.Productive
	h.interactions.Add(res.Interactions - h.seen)
	h.null.Add(res.Interactions - h.seen)
	h.seen = res.Interactions
}
