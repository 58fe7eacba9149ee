package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

// stepCount counts every step it is shown, though its marker says it
// ignores null steps: the count tells which loop ran. On the fused loop
// it sees exactly the productive steps, on the general loop all of them.
type stepCount struct{ steps uint64 }

func (c *stepCount) Init(*population.Population)                 { c.steps = 0 }
func (c *stepCount) OnStep(*population.Population, sim.StepInfo) { c.steps++ }
func (c *stepCount) IgnoresNull()                                {}

// runWith runs n agents of p from seed under kpart run's stop condition
// until stability or maxI interactions, with hooks attached.
func runWith(t *testing.T, p *core.Protocol, n int, seed, maxI uint64, hooks []sim.Hook) sim.Result {
	t.Helper()
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(population.New(p, n), sched.NewRandom(seed), sim.NewCountTarget(p.CanonMap(), target),
		sim.Options{MaxInteractions: maxI, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The hook sets kpart run builds for -v, -metrics and -progress keep
// sim.Run's fused loop; -trace's writer records null steps, so its set
// takes the general loop.
func TestRunObserversPickLoop(t *testing.T) {
	const n, seed = 120, 3
	p := core.MustNew(5)
	for _, c := range []struct {
		flags string
		obsv  runObservers
		fused bool
	}{
		{"", newRunObservers(p, obs.Nop(), false, nil, nil), true},
		{"-v", newRunObservers(p, obs.Nop(), true, &obs.Progress{W: io.Discard}, nil), true},
		{"-metrics", newRunObservers(p, obs.New("kpart"), false, nil, nil), true},
		{"-progress 100", newRunObservers(p, obs.Nop(), false, &obs.Progress{W: io.Discard, Every: 100}, nil), true},
		{"-trace", newRunObservers(p, obs.Nop(), false, nil, io.Discard), false},
	} {
		seen := &stepCount{}
		res := runWith(t, p, n, seed, 0, append([]sim.Hook{seen}, c.obsv.hooks...))
		if !res.Converged {
			t.Fatalf("kpart run %s: did not converge", c.flags)
		}
		want := res.Interactions
		if c.fused {
			want = res.Productive
		}
		if seen.steps != want {
			t.Errorf("kpart run %s: marked probe saw %d steps, want %d (fused loop: %v)", c.flags, seen.steps, want, c.fused)
		}
	}
}

// liveCheck, attached after a ruleHook, checks on every productive step
// that the hook's interaction counters stand at the step.
type liveCheck struct {
	t          *testing.T
	reg        *obs.Registry
	productive uint64
}

func (c *liveCheck) Init(*population.Population) { c.productive = 0 }

func (c *liveCheck) OnStep(pop *population.Population, s sim.StepInfo) {
	if !s.Changed {
		return
	}
	c.productive++
	at := pop.Interactions()
	if got := c.reg.Counter("sim/interactions").Value(); got != at {
		c.t.Fatalf("at interaction %d: sim/interactions = %d", at, got)
	}
	if got := c.reg.Counter("sim/null_interactions").Value(); got != at-c.productive {
		c.t.Fatalf("at interaction %d: sim/null_interactions = %d, want %d", at, got, at-c.productive)
	}
}

func (c *liveCheck) IgnoresNull() {}

// The rule hook's counters are live at every productive step, and after
// settle the rule/* counters sum to Result.Productive, sim/interactions
// is productive + null, and the tally has counted every encounter: on
// both loops, for a converged run and for a capped one that ends in a
// null stretch.
func TestRuleHookSumsToProductive(t *testing.T) {
	const n, k = 60, 4
	p := core.MustNew(k)
	for _, c := range []struct {
		name  string
		maxI  uint64
		trace bool
	}{
		{"converged", 0, false},
		{"capped", 3000, false},
		{"converged with -trace", 0, true},
		{"capped with -trace", 3000, true},
	} {
		reg := obs.New("kpart")
		var traceW io.Writer
		if c.trace {
			traceW = io.Discard
		}
		obsv := newRunObservers(p, reg, true, nil, traceW)
		hooks := append(obsv.hooks, &liveCheck{t: t, reg: reg})
		res := runWith(t, p, n, 7, c.maxI, hooks)
		if res.Converged == (c.maxI != 0) {
			t.Fatalf("%s: converged = %v", c.name, res.Converged)
		}
		obsv.rules.settle(res)

		snap := reg.Snapshot()
		var ruleSum uint64
		for _, m := range snap.Metrics {
			if strings.HasPrefix(m.Name, "rule/") {
				ruleSum += m.Value
			}
		}
		for name, want := range map[string]uint64{
			"sim/productive_interactions": res.Productive,
			"sim/interactions":            res.Interactions,
			"sim/null_interactions":       res.Interactions - res.Productive,
			"sim/unclassified":            0,
		} {
			if m, ok := snap.Find(name); !ok || m.Value != want {
				t.Errorf("%s: %s = %d (present %v), want %d", c.name, name, m.Value, ok, want)
			}
		}
		tally := obsv.rules.tally
		if ruleSum != res.Productive || tally.Total() != res.Interactions || tally.Counts[core.RuleNull] != res.Interactions-res.Productive {
			t.Errorf("%s: rule counters sum to %d, tally to %d with %d null; want %d productive of %d",
				c.name, ruleSum, tally.Total(), tally.Counts[core.RuleNull], res.Productive, res.Interactions)
		}
		for kind := core.RuleNull + 1; int(kind) < core.NumRuleKinds; kind++ {
			if m, _ := snap.Find("rule/" + kind.String()); m.Value != tally.Counts[kind] {
				t.Errorf("%s: rule/%s = %d, tally %d", c.name, kind, m.Value, tally.Counts[kind])
			}
		}
	}
}
