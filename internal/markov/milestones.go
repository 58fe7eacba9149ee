package markov

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Per-milestone hitting times: the exact counterpart of the simulation's
// Figure 4 marks (obs.Milestones). Milestone j is the first
// time #gk — the count of agents in the terminal group state — reaches j,
// and because gk-agents never leave gk (Section 5.1 of the paper), the set
// {configurations with #gk ≥ j} is closed, making each milestone an
// absorption problem on the same chain with a different target set. The
// analytical twin's rung-1 validation compares these phase-by-phase
// against its lumped-chain milestones.

// HittingTimesTo solves for the expected number of interactions from every
// configuration until a configuration in the absorb set is first entered,
// by the same Gauss–Seidel sweeps as HittingTimes. absorb must have one
// entry per chain node; absorbed nodes get 0. The first-step analysis
// behind the linear system holds for ANY target set — closure is not
// required for first-hitting times — but every node must be able to reach
// the set or its expectation is infinite, which the solver detects and
// reports rather than looping forever.
func (ch *Chain) HittingTimesTo(absorb []bool, tol float64, maxIter int) ([]float64, error) {
	nNodes := len(ch.Graph.Nodes)
	if len(absorb) != nNodes {
		return nil, fmt.Errorf("markov: absorb has %d entries, chain has %d nodes", len(absorb), nNodes)
	}
	hasTarget := false
	for _, s := range absorb {
		if s {
			hasTarget = true
			break
		}
	}
	if !hasTarget {
		return nil, ErrNoStable
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 2_000_000
	}
	reach := ch.Graph.CanReach(absorb)
	for i, ok := range reach {
		if !ok {
			return nil, fmt.Errorf("%w: node %d", ErrNoStable, i)
		}
	}
	E := make([]float64, nNodes)
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for i := 0; i < nNodes; i++ {
			if absorb[i] {
				continue
			}
			sum := 1.0
			for _, e := range ch.Out[i] {
				sum += e.P * E[e.To]
			}
			denom := 1 - ch.SelfLoop[i]
			if denom <= 0 {
				return nil, fmt.Errorf("%w: node %d is fully self-looping", ErrNoStable, i)
			}
			next := sum / denom
			if d := math.Abs(next - E[i]); d > maxDelta {
				maxDelta = d
			}
			E[i] = next
		}
		if maxDelta < tol {
			return E, nil
		}
	}
	return nil, ErrNoConverge
}

// Milestones returns the exact expected number of interactions from the
// all-initial configuration until #gk first reaches j, for j = 1..⌊n/k⌋
// (index j−1 in the returned slice — the same layout as a simulated
// trial's Marks). The final milestone is the completion of the
// last full group; the terminal stabilization time additionally pays for
// settling the n mod k leftover agents, so Milestones[q−1] ≤
// ExpectedStabilization, with equality only when the last gk arrival
// happens to coincide with stability.
func Milestones(p *core.Protocol, n int) ([]float64, error) {
	ch, err := New(p, n)
	if err != nil {
		return nil, err
	}
	return ch.MilestonesFrom(p, n)
}

// MilestonesFrom computes the per-milestone hitting times on an already
// built chain (callers validating several things against one chain avoid
// rebuilding the reachable graph per question). p and n must be the
// protocol and population the chain was built with.
func (ch *Chain) MilestonesFrom(p *core.Protocol, n int) ([]float64, error) {
	q := n / p.K()
	if q == 0 {
		return nil, fmt.Errorf("markov: population %d cannot fill any group of k=%d", n, p.K())
	}
	gk := p.G(p.K())
	out := make([]float64, q)
	absorb := make([]bool, len(ch.Graph.Nodes))
	for j := 1; j <= q; j++ {
		for i, node := range ch.Graph.Nodes {
			absorb[i] = node.Counts[gk] >= j
		}
		E, err := ch.HittingTimesTo(absorb, 1e-12, 0)
		if err != nil {
			return nil, fmt.Errorf("markov: milestone %d: %w", j, err)
		}
		out[j-1] = E[0]
	}
	return out, nil
}
