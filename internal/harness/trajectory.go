package harness

import (
	"fmt"

	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Convergence trajectories: the paper evaluates only the endpoint (total
// interactions to stability); this auxiliary experiment shows HOW the
// partition becomes uniform — the mean group-size spread as a function of
// elapsed interactions. The spread collapses quickly to ~1-2 and then
// plateaus while the protocol finishes the last grouping, visualizing why
// the final grouping dominates the cost (Figure 4's observation from a
// different angle).

// TrajectoryConfig parameterizes the experiment.
type TrajectoryConfig struct {
	N      int
	Ks     []int
	Trials int
	Seed   uint64
}

// Each curve has trajectorySamples+1 equally spaced samples. Its horizon
// is per-k: trajectoryHorizon × a pilot estimate of the stabilization
// time, so curves for different k are comparable.
const (
	trajectorySamples = 40
	trajectoryHorizon = 1.2
)

// TrajectorySeries is one k's mean-spread curve.
type TrajectorySeries struct {
	K          int
	Horizon    uint64    // interactions spanned
	X          []float64 // sample positions (interactions)
	MeanSpread []float64
	// StableFrac[i] is the fraction of trials already stable at sample i.
	StableFrac []float64
}

// RunTrajectory executes the experiment.
func RunTrajectory(cfg TrajectoryConfig) ([]TrajectorySeries, error) {
	var out []TrajectorySeries
	for ki, k := range cfg.Ks {
		p := Proto(k)
		target, err := p.TargetCounts(cfg.N)
		if err != nil {
			return nil, err
		}

		// Pilot: estimate the horizon from three quick runs.
		var pilot uint64
		for t := 0; t < 3; t++ {
			res, err := RunTrial(TrialSpec{N: cfg.N, K: k, Seed: rng.StreamSeed(cfg.Seed, 7777, uint64(ki*3+t))})
			if err != nil {
				return nil, err
			}
			pilot += res.Interactions
		}
		horizon := uint64(float64(pilot/3) * trajectoryHorizon)
		if horizon < trajectorySamples {
			horizon = trajectorySamples
		}
		interval := horizon / trajectorySamples
		if interval == 0 {
			interval = 1
		}

		s := TrajectorySeries{K: k, Horizon: horizon}
		sums := make([]float64, trajectorySamples+1)
		stable := make([]float64, trajectorySamples+1)
		counts := make([]int, trajectorySamples+1)
		for t := 0; t < cfg.Trials; t++ {
			pop := population.New(p, cfg.N)
			rec := &sim.SpreadRecorder{Interval: interval}
			ct := sim.NewCountTarget(p.CanonMap(), target)
			ct.Init(pop)
			// Run to the horizon, sampling spread; track stability via
			// the count-target detector without stopping.
			stableAt := uint64(0)
			hook := sim.StepFunc(func(pop *population.Population, st sim.StepInfo) {
				if ct.Step(pop, st) && stableAt == 0 {
					stableAt = pop.Interactions()
				}
			})
			if _, err := sim.Run(pop, sched.NewRandom(rng.StreamSeed(cfg.Seed, uint64(1000+ki), uint64(t))),
				sim.After{N: horizon}, sim.Options{Hooks: []sim.Hook{rec, hook}}); err != nil {
				return nil, err
			}
			for i := 0; i <= trajectorySamples && i < len(rec.Samples); i++ {
				sums[i] += float64(rec.Samples[i])
				counts[i]++
				if stableAt != 0 && uint64(i)*interval >= stableAt {
					stable[i]++
				}
			}
		}
		for i := 0; i <= trajectorySamples; i++ {
			if counts[i] == 0 {
				break
			}
			s.X = append(s.X, float64(uint64(i)*interval))
			s.MeanSpread = append(s.MeanSpread, sums[i]/float64(counts[i]))
			s.StableFrac = append(s.StableFrac, stable[i]/float64(cfg.Trials))
		}
		out = append(out, s)
	}
	return out, nil
}

// TrajectoryTable renders the curves.
func TrajectoryTable(series []TrajectorySeries) *report.Table {
	t := report.NewTable("k", "interactions", "mean_spread", "stable_fraction")
	for _, s := range series {
		for i := range s.X {
			t.AddRow(s.K, s.X[i], s.MeanSpread[i], s.StableFrac[i])
		}
	}
	return t
}

// TrajectoryChart renders normalized curves (x as a fraction of each k's
// horizon so the series overlay).
func TrajectoryChart(series []TrajectorySeries) *report.LineChart {
	c := &report.LineChart{
		Title:  "Convergence trajectory: mean group-size spread over time",
		XLabel: "fraction of horizon",
		YLabel: "mean spread",
	}
	for _, s := range series {
		rs := report.Series{Name: fmt.Sprintf("k=%d", s.K)}
		for i := range s.X {
			rs.X = append(rs.X, s.X[i]/float64(s.Horizon))
			rs.Y = append(rs.Y, s.MeanSpread[i])
		}
		c.Series = append(c.Series, rs)
	}
	return c
}
