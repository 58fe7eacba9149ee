package harness

import (
	"context"
	"fmt"

	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/protocols/composed"
	"repro/internal/protocols/interval"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file implements the protocol-comparison ablations (DESIGN.md A1/A2):
// the paper's exact protocol vs repeated bipartition vs the approximate
// interval baseline, on state budget, output quality (spread), and
// interactions to stability. Because the three protocols stabilize in
// different senses, each Contender carries its own stop condition factory.

// Contender is one protocol entered into a comparison.
type Contender struct {
	Name string
	// Build returns the protocol instance and a stop condition detecting
	// ITS notion of stability for n agents.
	Build func(k, n int) (protocol.Protocol, sim.StopCondition, error)
	// Supports reports whether the contender is defined at this k.
	Supports func(k int) bool
}

// Contenders returns the standard lineup.
func Contenders() []Contender {
	return []Contender{
		{
			Name: "k-partition (paper)",
			Build: func(k, n int) (protocol.Protocol, sim.StopCondition, error) {
				p := Proto(k)
				tgt, err := p.TargetCounts(n)
				if err != nil {
					return nil, nil, err
				}
				return p, sim.NewCountTarget(p.CanonMap(), tgt), nil
			},
			Supports: func(k int) bool { return k >= 2 },
		},
		{
			Name: "repeated bipartition",
			Build: func(k, n int) (protocol.Protocol, sim.StopCondition, error) {
				p, err := composed.New(k)
				if err != nil {
					return nil, nil, err
				}
				return p, sim.NewCountsPredicate(p.Stable), nil
			},
			Supports: func(k int) bool { return k >= 2 && k&(k-1) == 0 },
		},
		{
			Name: "interval baseline",
			Build: func(k, n int) (protocol.Protocol, sim.StopCondition, error) {
				p, err := interval.New(k)
				if err != nil {
					return nil, nil, err
				}
				return p, sim.NewCountsPredicate(p.Stable), nil
			},
			// One state per interval [lo, hi] of 1..k: k(k+1)/2 of them,
			// more than protocol.MaxStates from k = 91 on.
			Supports: func(k int) bool { return k >= 2 && k*(k+1)/2 <= protocol.MaxStates },
		},
	}
}

// CompareResult is one contender's aggregate at one (n, k) point.
type CompareResult struct {
	Name        string
	N, K        int
	States      int
	Trials      int
	Mean        float64 // mean interactions to its stability notion
	CI95        float64
	MeanSpread  float64 // mean final group-size spread
	WorstSpread int
	Unconverged int
}

// Compare runs every supporting contender at (n, k) for the given number
// of trials and returns one row per contender.
func Compare(n, k, trials int, seed uint64) ([]CompareResult, error) {
	var out []CompareResult
	for ci, c := range Contenders() {
		if !c.Supports(k) {
			continue
		}
		row := CompareResult{Name: c.Name, N: n, K: k, Trials: trials}
		var xs []float64
		for t := 0; t < trials; t++ {
			proto, stop, err := c.Build(k, n)
			if err != nil {
				return nil, fmt.Errorf("compare %q: %w", c.Name, err)
			}
			row.States = proto.NumStates()
			pop := population.New(proto, n)
			s := sched.NewRandom(rng.StreamSeed(seed, uint64(ci)<<32|uint64(n)<<8|uint64(k), uint64(t)))
			res, err := sim.Run(pop, s, stop, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("compare %q: %w", c.Name, err)
			}
			if !res.Converged {
				row.Unconverged++
				continue
			}
			xs = append(xs, float64(res.Interactions))
			sp := res.Spread()
			row.MeanSpread += float64(sp)
			if sp > row.WorstSpread {
				row.WorstSpread = sp
			}
		}
		if n := len(xs); n > 0 {
			row.Mean = stats.Mean(xs)
			row.CI95 = stats.CI95(xs)
			row.MeanSpread /= float64(n)
		}
		out = append(out, row)
	}
	return out, nil
}

// SchedulerAblation compares the random scheduler against the
// deterministic sweep scheduler at (n, k): both are fair enough in
// practice for this protocol (every pair recurs), but their interaction
// counts differ, quantifying the scheduler's influence on the time metric
// (DESIGN.md A3).
type SchedulerAblationRow struct {
	Scheduler   string
	N, K        int
	Trials      int
	Mean        float64
	CI95        float64
	Unconverged int
}

// RunSchedulerAblation executes the ablation. The random row is a sweep
// point (PointID 99) on the agent engine. The sweep scheduler is
// deterministic, so its "trials" differ only in nothing — it runs once.
func RunSchedulerAblation(n, k, trials int, seed uint64) ([]SchedulerAblationRow, error) {
	pt, err := SweepPointCtx(context.Background(),
		SweepSpec{TrialSpec: TrialSpec{N: n, K: k, Seed: seed}, Trials: trials, PointID: 99}, RunOptions{})
	if err != nil {
		return nil, err
	}
	random := SchedulerAblationRow{Scheduler: "random", N: n, K: k, Trials: trials,
		Mean: pt.Mean, CI95: pt.CI95, Unconverged: pt.Unconverged}

	p := Proto(k)
	tgt, err := p.TargetCounts(n)
	if err != nil {
		return nil, err
	}
	sweep := SchedulerAblationRow{Scheduler: "sweep", N: n, K: k, Trials: 1}
	res, err := sim.Run(population.New(p, n), sched.NewSweep(), sim.NewCountTarget(p.CanonMap(), tgt), sim.Options{})
	if err != nil {
		return nil, err
	}
	if res.Converged {
		sweep.Mean = float64(res.Interactions)
	} else {
		sweep.Unconverged = 1
	}
	return []SchedulerAblationRow{random, sweep}, nil
}
