package harness

import (
	"context"

	"repro/internal/rng"
)

// This file runs the figure sweeps of the paper's Section 5 as grids of
// (n, k) cells, one aggregated sweep point per cell. Which cells a figure
// has, and the point ID its grid starts at, is decided by the command that
// draws the figure (`kpart experiments`); rendering lives in render.go.

// Defaults matching the paper's setup where it states them. The paper
// conducts 100 trials per setting (Section 5, "we conduct a simulation 100
// times and show the average values").
const (
	DefaultTrials = 100
	DefaultSeed   = 20180725 // the paper's submission date, for flavor
)

// KSeries is one k's sweep over n.
type KSeries struct {
	K      int
	Points []Point
}

// RunGridCtx runs base once per (n, k) cell, in order, and returns one
// point per cell: cell i runs base with the cell's N and K under point ID
// base.PointID+i through SweepPointCtx, so it honours ctx and
// opts.Journal as a single sweep point does. An empty cell list returns
// nil.
func RunGridCtx(ctx context.Context, base SweepSpec, cells [][2]int, opts RunOptions) ([]Point, error) {
	var pts []Point
	for i, cell := range cells {
		s := base
		s.N, s.K = cell[0], cell[1]
		s.PointID = base.PointID + uint64(i)
		pt, err := SweepPointCtx(ctx, s, opts)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// SeedForCell reproduces the seed of one trial of one point; Specs
// derives every sweep trial's seed through it. Exposed so a single cell
// can be re-run in isolation (e.g. while debugging an outlier trial from
// a CSV).
func SeedForCell(rootSeed, pointID uint64, trial int) uint64 {
	return rng.StreamSeed(rootSeed, pointID, uint64(trial))
}
