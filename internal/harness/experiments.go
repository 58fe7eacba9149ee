package harness

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// This file defines the four figure experiments of the paper's Section 5
// plus the growth-analysis readouts. Each Run* function returns the raw
// aggregated points; rendering lives in render.go and the binaries.

// Defaults matching the paper's setup where it states them. The paper
// conducts 100 trials per setting (Section 5, "we conduct a simulation 100
// times and show the average values").
const (
	DefaultTrials = 100
	DefaultSeed   = 20180725 // the paper's submission date, for flavor
)

// Fig3Config sweeps the population size n for several k (Figure 3): the
// jagged interactions-vs-n curves whose period is k.
type Fig3Config struct {
	Ks      []int // paper: {4, 6, 8}
	NMin    int   // sweep start (inclusive); defaults to max(k+2, 10)
	NMax    int   // sweep end (inclusive); paper plots to ~O(100)
	NStep   int   // step (1 reproduces the jaggedness)
	Trials  int
	Seed    uint64
	Workers int
	// Grouping additionally records per-grouping marks, turning the same
	// sweep into Figure 4.
	Grouping        bool
	MaxInteractions uint64
	// Engine selects the simulation backend for every trial.
	Engine Engine
}

func (c *Fig3Config) fill() {
	if len(c.Ks) == 0 {
		c.Ks = []int{4, 6, 8}
	}
	if c.NMax == 0 {
		c.NMax = 60
	}
	if c.NStep == 0 {
		c.NStep = 1
	}
	if c.Trials == 0 {
		c.Trials = DefaultTrials
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
}

// KSeries is one k's sweep over n.
type KSeries struct {
	K      int
	Points []Point
}

// RunFig3 executes the Figure 3 (and, with Grouping, Figure 4) sweep.
func RunFig3(cfg Fig3Config) ([]KSeries, error) {
	return RunFig3Ctx(context.Background(), cfg, RunOptions{})
}

// RunFig3Ctx is RunFig3 under a context and resilience policy: the sweep
// honors cancellation between (and, via the engines, within) trials, and
// with opts.Journal set it skips journaled trials and checkpoints each
// completed one — the resume workflow of `kpart experiments`.
func RunFig3Ctx(ctx context.Context, cfg Fig3Config, opts RunOptions) ([]KSeries, error) {
	cfg.fill()
	var out []KSeries
	pointID := uint64(0)
	for _, k := range cfg.Ks {
		nMin := cfg.NMin
		if nMin < k+2 {
			// Below k+2 the first grouping cannot even leave a remainder
			// worth plotting; the paper's curves start around there.
			nMin = k + 2
		}
		if nMin < 3 {
			nMin = 3
		}
		s := KSeries{K: k}
		for n := nMin; n <= cfg.NMax; n += cfg.NStep {
			pt, err := SweepPointCtx(ctx, SweepSpec{
				N: n, K: k, Trials: cfg.Trials, Seed: cfg.Seed, PointID: pointID,
				Grouping: cfg.Grouping, Workers: cfg.Workers,
				MaxInteractions: cfg.MaxInteractions, Engine: cfg.Engine,
			}, opts)
			if err != nil {
				return nil, fmt.Errorf("fig3: %w", err)
			}
			s.Points = append(s.Points, pt)
			pointID++
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5Config sweeps n = Base·n' for several k with n mod k == 0
// (Figure 5): growth in n without the remainder effect.
type Fig5Config struct {
	Ks              []int // paper: {3, 4, 5, 6}
	Base            int   // paper: 120 (divisible by all of 3,4,5,6)
	NFactors        []int // paper: 1..8
	Trials          int
	Seed            uint64
	Workers         int
	MaxInteractions uint64
	Engine          Engine
}

func (c *Fig5Config) fill() {
	if len(c.Ks) == 0 {
		c.Ks = []int{3, 4, 5, 6}
	}
	if c.Base == 0 {
		c.Base = 120
	}
	if len(c.NFactors) == 0 {
		c.NFactors = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if c.Trials == 0 {
		c.Trials = DefaultTrials
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
}

// RunFig5 executes the Figure 5 sweep.
func RunFig5(cfg Fig5Config) ([]KSeries, error) {
	return RunFig5Ctx(context.Background(), cfg, RunOptions{})
}

// RunFig5Ctx is RunFig5 with cancellation and checkpoint/resume (see
// RunFig3Ctx).
func RunFig5Ctx(ctx context.Context, cfg Fig5Config, opts RunOptions) ([]KSeries, error) {
	cfg.fill()
	var out []KSeries
	pointID := uint64(1 << 20) // disjoint from fig3's ids
	for _, k := range cfg.Ks {
		s := KSeries{K: k}
		for _, f := range cfg.NFactors {
			n := cfg.Base * f
			if n%k != 0 {
				return nil, fmt.Errorf("fig5: n=%d not divisible by k=%d", n, k)
			}
			pt, err := SweepPointCtx(ctx, SweepSpec{
				N: n, K: k, Trials: cfg.Trials, Seed: cfg.Seed, PointID: pointID,
				Workers: cfg.Workers, MaxInteractions: cfg.MaxInteractions, Engine: cfg.Engine,
			}, opts)
			if err != nil {
				return nil, fmt.Errorf("fig5: %w", err)
			}
			s.Points = append(s.Points, pt)
			pointID++
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig6Config fixes n and sweeps k over divisors of n (Figure 6): the
// log-scale exponential-in-k curve.
type Fig6Config struct {
	N               int   // paper: 960
	Ks              []int // divisors of N; default {2,3,4,5,6,8,10,12}
	Trials          int
	Seed            uint64
	Workers         int
	MaxInteractions uint64
	Engine          Engine
}

func (c *Fig6Config) fill() {
	if c.N == 0 {
		c.N = 960
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 3, 4, 5, 6, 8, 10, 12}
	}
	if c.Trials == 0 {
		c.Trials = DefaultTrials
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	sort.Ints(c.Ks)
}

// RunFig6 executes the Figure 6 sweep; the returned points share N and
// vary K.
func RunFig6(cfg Fig6Config) ([]Point, error) {
	return RunFig6Ctx(context.Background(), cfg, RunOptions{})
}

// RunFig6Ctx is RunFig6 with cancellation and checkpoint/resume (see
// RunFig3Ctx).
func RunFig6Ctx(ctx context.Context, cfg Fig6Config, opts RunOptions) ([]Point, error) {
	cfg.fill()
	var out []Point
	pointID := uint64(1 << 21)
	for _, k := range cfg.Ks {
		if cfg.N%k != 0 {
			return nil, fmt.Errorf("fig6: n=%d not divisible by k=%d", cfg.N, k)
		}
		pt, err := SweepPointCtx(ctx, SweepSpec{
			N: cfg.N, K: k, Trials: cfg.Trials, Seed: cfg.Seed, PointID: pointID,
			Workers: cfg.Workers, MaxInteractions: cfg.MaxInteractions, Engine: cfg.Engine,
		}, opts)
		if err != nil {
			return nil, fmt.Errorf("fig6: %w", err)
		}
		out = append(out, pt)
		pointID++
	}
	return out, nil
}

// SeedForCell reproduces the seed of one trial of one point, matching the
// derivation SweepPoint uses. Exposed so a single cell can be re-run in
// isolation (e.g. while debugging an outlier trial from a CSV).
func SeedForCell(rootSeed, pointID uint64, trial int) uint64 {
	return rng.StreamSeed(rootSeed, pointID, uint64(trial))
}
