package twin

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Rung 2: the mean-field (fluid) model with an exact endgame.
//
// The fluid state drops one more coordinate than the lumped chain: instead
// of (a, b) it tracks only F = a + b. The parity split is the chain's one
// fast degree of freedom — rules 1–4 shuffle initial ↔ initial' on a much
// shorter timescale than groups form once the bulk phase is underway — so
// integrating it explicitly would make the ODE stiff (step size pinned by
// parity mixing, ~n× more steps than the slow dynamics needs). The
// quasi-steady substitution replaces it: with parity well mixed, a is
// Binomial(F, 1/2)-distributed, so the rule 5 pair count 2ab averages to
// F(F−1)/2 — the only place the split enters the slow dynamics, since
// rules 6 and 7 fire at 2·(a+b)·m regardless of the split and rules 1–4
// do not move F at all. The substitution is exact up to the initial
// transient (~n interactions out of a Θ(n²)-and-worse total) and O(1/F)
// integer effects — which is why the fluid hands off to an exact sub-chain
// before F gets small.
//
// The endgame: the fluid is integrated only until #gk reaches
// cStop = ⌊n/k⌋ − J; the remaining levels — where the last groups form,
// integer effects dominate, and most of the variance lives — are solved
// exactly on the lumped sub-chain restricted to #gk ≥ cStop (residual
// non-g population ≤ k·J + n mod k agents, so the sub-chain stays small
// for any n). The fluid state at the crossing rounds to the sub-chain
// entry node; expected totals add, and milestones past cStop come from
// the sub-chain's level hitting times.

// fluidState indexes: y[0] = F, y[i−1] = #m_i (i = 2..k−1),
// y[k−2+i] = #d_i (i = 1..k−2), y[2k−3] = #gk.
func fluidLen(k int) int { return 2*k - 2 }

// fluid evaluates the finite-n drift of the reduced vector: expected
// change per interaction, E[ΔY | Y], with exact ordered-pair counts.
type fluid struct {
	k    int
	t    float64   // n(n−1), the ordered-pair normalizer
	gSuf []float64 // drift's scratch
}

func (f *fluid) mIdx(i int) int { return i - 1 }       // i in 2..k−1
func (f *fluid) dIdx(i int) int { return f.k - 2 + i } // i in 1..k−2
func (f *fluid) cIdx() int      { return 2*f.k - 3 }

// drift writes E[ΔY]/Δτ into dy.
func (f *fluid) drift(y, dy []float64) {
	k := f.k
	w := 1 / f.t
	for i := range dy {
		dy[i] = 0
	}
	F := y[0]
	c := y[f.cIdx()]
	// g_i via Lemma 1: suffix sums of m and d over levels >= i.
	// gSuf[i] = g_i for i = 1..k−1 (only rules 9/10 need them).
	if len(f.gSuf) != k+1 {
		f.gSuf = make([]float64, k+1)
	}
	gSuf := f.gSuf
	gSuf[k] = c
	for i := k - 1; i >= 1; i-- {
		g := gSuf[i+1]
		if i+1 <= k-1 {
			g += y[f.mIdx(i+1)]
		}
		if i <= k-2 {
			g += y[f.dIdx(i)]
		}
		gSuf[i] = g
	}
	// Rule 5 under the quasi-steady parity split: E[2ab] = F(F−1)/2.
	r5 := F * (F - 1) / 2 * w
	if r5 > 0 {
		dy[0] -= 2 * r5
		if k >= 3 {
			dy[f.mIdx(2)] += r5
		} else {
			dy[f.cIdx()] += r5
		}
	}
	// Rules 6 and 7: a free agent feeds the m-head; rate 2·F·m_i.
	for i := 2; i <= k-1; i++ {
		r := 2 * F * y[f.mIdx(i)] * w
		if r <= 0 {
			continue
		}
		dy[0] -= r
		dy[f.mIdx(i)] -= r
		if i < k-1 {
			dy[f.mIdx(i+1)] += r
		} else {
			dy[f.cIdx()] += r
		}
	}
	// Rule 8: ordered head collisions (m_i, m_j), rate m_i·(m_j − [i=j]);
	// each firing demotes both heads, so the ordered loop applies the full
	// two-agent delta and the two orders of an (i, j) pair sum to the
	// unordered rate 2·m_i·m_j.
	for i := 2; i <= k-1; i++ {
		mi := y[f.mIdx(i)]
		if mi <= 0 {
			continue
		}
		for j := 2; j <= k-1; j++ {
			mj := y[f.mIdx(j)]
			if i == j {
				mj--
			}
			if mj <= 0 {
				continue
			}
			r := mi * mj * w
			dy[f.mIdx(i)] -= r
			dy[f.mIdx(j)] -= r
			dy[f.dIdx(i-1)] += r
			dy[f.dIdx(j-1)] += r
		}
	}
	// Rules 9 and 10: demolition unwinding, rate 2·d_i·g_i.
	for i := 2; i <= k-2; i++ {
		r := 2 * y[f.dIdx(i)] * gSuf[i] * w
		if r <= 0 {
			continue
		}
		dy[f.dIdx(i)] -= r
		dy[f.dIdx(i-1)] += r
		dy[0] += r
	}
	if k >= 3 {
		r := 2 * y[f.dIdx(1)] * gSuf[1] * w
		if r > 0 {
			dy[f.dIdx(1)] -= r
			dy[0] += 2 * r
		}
	}
}

// rk4 advances y by one classical Runge–Kutta step of size h into out.
func (f *fluid) rk4(y []float64, h float64, out []float64, k1, k2, k3, k4, tmp []float64) {
	n := len(y)
	f.drift(y, k1)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + h/2*k1[i]
	}
	f.drift(tmp, k2)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + h/2*k2[i]
	}
	f.drift(tmp, k3)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + h*k3[i]
	}
	f.drift(tmp, k4)
	for i := 0; i < n; i++ {
		out[i] = y[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
		if out[i] < 0 {
			out[i] = 0 // float undershoot on depleted coordinates
		}
	}
}

// Integration parameters: per-step relative error target for the
// step-doubling control, step growth/shrink factors, and a hard step cap
// so a wedged trajectory errors instead of spinning.
const (
	fluidTol      = 1e-7
	fluidMaxSteps = 5_000_000
)

// fluidResult is the integrated bulk phase: time to the handoff level,
// the state at the crossing, and the milestone crossing times recorded on
// the way (crossings[j−1] for #gk = j, j = 1..cStop).
type fluidResult struct {
	tau       float64
	y         []float64
	crossings []float64
}

// integrate runs the fluid from all-free until #gk reaches cStop. The
// step size adapts by step doubling: a full step is compared against two
// half steps, accepted when they agree to fluidTol, and the richer
// two-half-step estimate is kept. The next step size follows the
// standard proportional controller h·0.9·(tol/err)^(1/5) (clamped) —
// always adjusting, so h keeps growing geometrically along the long
// quiet tail instead of freezing the first time the error lands between
// tol/64 and tol (which once stalled million-agent runs mid-trajectory).
func (f *fluid) integrate(n, cStop int) (fluidResult, error) {
	dim := fluidLen(f.k)
	y := make([]float64, dim)
	y[0] = float64(n)
	res := fluidResult{crossings: make([]float64, cStop)}
	if cStop <= 0 {
		res.y = y
		return res, nil
	}
	full := make([]float64, dim)
	half := make([]float64, dim)
	half2 := make([]float64, dim)
	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	tmp := make([]float64, dim)
	ci := f.cIdx()
	tau := 0.0
	h := 1.0
	nextMilestone := 1
	for step := 0; step < fluidMaxSteps; step++ {
		f.rk4(y, h, full, k1, k2, k3, k4, tmp)
		f.rk4(y, h/2, half, k1, k2, k3, k4, tmp)
		f.rk4(half, h/2, half2, k1, k2, k3, k4, tmp)
		errEst := 0.0
		for i := 0; i < dim; i++ {
			d := math.Abs(full[i] - half2[i])
			scale := 1 + math.Abs(half2[i])
			if e := d / scale; e > errEst {
				errEst = e
			}
		}
		// Proportional controller, shared by accept and reject.
		fac := 5.0
		if errEst > 0 {
			fac = 0.9 * math.Pow(fluidTol/errEst, 0.2)
			if fac < 0.2 {
				fac = 0.2
			} else if fac > 5 {
				fac = 5
			}
		}
		if errEst > fluidTol {
			h *= fac
			if h < 1e-9 {
				return res, fmt.Errorf("twin: fluid step underflow at τ=%g", tau)
			}
			continue
		}
		cPrev, cNext := y[ci], half2[ci]
		// Record integer crossings inside this step by linear
		// interpolation of #gk.
		for nextMilestone <= cStop && cNext >= float64(nextMilestone) {
			frac := 1.0
			if cNext > cPrev {
				frac = (float64(nextMilestone) - cPrev) / (cNext - cPrev)
			}
			res.crossings[nextMilestone-1] = tau + frac*h
			if nextMilestone == cStop {
				// Hand off: interpolate the whole state to the crossing.
				res.tau = tau + frac*h
				res.y = make([]float64, dim)
				for i := 0; i < dim; i++ {
					res.y[i] = y[i] + frac*(half2[i]-y[i])
				}
				res.y[ci] = float64(cStop)
				return res, nil
			}
			nextMilestone++
		}
		copy(y, half2)
		tau += h
		h *= fac
	}
	return res, fmt.Errorf("twin: fluid did not reach #gk=%d within %d steps (stalled at %g)", cStop, fluidMaxSteps, y[ci])
}

// entryDist approximates the configuration distribution at the moment
// #gk first reaches the handoff level, as weights over the endgame
// chain's floor-level states: independent Poisson marginals for each m/d
// count around its fluid mean, a Binomial(F, 1/2) parity split of the
// free agents (rules 1–4 mix parity fast), conditioned on the exact
// residual population by restricting to the floor level and
// renormalizing. A point mass at the rounded fluid state would inherit
// the fluid's blindness to spread — hitting times are convex in the
// entry state, so averaging over a distribution matters (the measured
// point-mass bias at k = 3 was ~3%, an order of magnitude above what
// this leaves). The weights never all vanish: the drift conserves the
// population, so the rounded-down fluid means of m and d weigh at most
// the floor level's residual, buildEndgame seeds that state with every
// a/b split of the rest, and its weight is positive. Predict reports an
// all-zero total (nil ids) as an error.
func entryDist(ch *lchain, f *fluid, y []float64) (ids []int, ws []float64) {
	floor := ch.levels[0]
	ws = make([]float64, 0, len(floor))
	ids = make([]int, 0, len(floor))
	k := f.k
	total := 0.0
	for _, id := range floor {
		vec := ch.vec(id)
		w := 1.0
		for i := 2; i <= k-1; i++ {
			w *= poissonPMF(y[f.mIdx(i)], int(vec[i]))
		}
		for i := 1; i <= k-2; i++ {
			w *= poissonPMF(y[f.dIdx(i)], int(vec[k+i-1]))
		}
		w *= binomialHalfPMF(int(vec[0]), int(vec[1]))
		ids = append(ids, id)
		ws = append(ws, w)
		total += w
	}
	if total <= 0 {
		return nil, nil
	}
	for i := range ws {
		ws[i] /= total
	}
	return ids, ws
}

// poissonPMF is e^−λ λ^x / x! with the λ = 0 limit (point mass at 0).
func poissonPMF(lambda float64, x int) float64 {
	if lambda <= 0 {
		if x == 0 {
			return 1
		}
		return 0
	}
	logp := -lambda + float64(x)*math.Log(lambda)
	for i := 2; i <= x; i++ {
		logp -= math.Log(float64(i))
	}
	return math.Exp(logp)
}

// binomialHalfPMF is C(a+b, a) / 2^(a+b): the stationary parity split of
// a + b free agents under the rule 1–4 mixing.
func binomialHalfPMF(a, b int) float64 {
	n := a + b
	logp := -float64(n) * math.Ln2
	// log C(n, a) summed incrementally to stay in range for any n.
	for i := 1; i <= a; i++ {
		logp += math.Log(float64(n-a+i)) - math.Log(float64(i))
	}
	return math.Exp(logp)
}

// MeanField is rung 2 of the ladder: fluid bulk dynamics plus the exact
// endgame sub-chain, for arbitrary populations. It holds no state: every
// answer builds and solves its own endgame chain.
type MeanField struct{}

// Endgame sizing: endgameLevels exactly-solved #gk levels (J) when they
// fit, fewer when the sub-chain would exceed endgameBudget states; the
// budget keeps a cold prediction fast.
const (
	endgameLevels = 8
	endgameBudget = 20_000
)

// NewMeanField returns the mean-field rung.
func NewMeanField() *MeanField { return &MeanField{} }

// Name implements Model.
func (m *MeanField) Name() string { return "meanfield" }

// Fidelity implements Model.
func (m *MeanField) Fidelity() Fidelity { return FidelityFluid }

// chooseEndgame picks the deepest handoff level whose sub-chain
// (#gk >= cStop) fits the budget AND whose floor level — the largest of
// the sub-chain, since levels shrink as #gk grows — fits the direct
// solver's cap. The second condition keeps every endgame solve on the
// exact sparse LU path; the Gauss–Seidel fallback does not converge on
// the near-degenerate level systems that large populations produce. cStop ranges from
// q − endgameLevels up to q−1 (the fluid's #gk tends to q, so any level
// below q is crossed in finite time); q = 0 means the "endgame" is the
// whole chain and the prediction is exact. ok=false means even one exact
// level is too big (extreme k) and the caller must fall back.
func chooseEndgame(n, k, q int) (cStop int, ok bool) {
	lo := max(q-endgameLevels, 0)
	hi := max(q-1, 0)
	for stop := lo; stop <= hi; stop++ {
		floor := n - k*stop
		if levelCounts(k, floor, denseLevelCap+1)[floor] > denseLevelCap {
			continue
		}
		if endgameCount(n, k, stop, endgameBudget+1) <= endgameBudget {
			return stop, true
		}
	}
	return 0, false
}

// Predict implements Model: integrate the fluid to the handoff level,
// solve the endgame exactly from the smoothed entry distribution, and
// combine.
func (m *MeanField) Predict(s Spec) (Prediction, error) {
	if err := checkSpec(s); err != nil {
		return Prediction{}, err
	}
	p, err := core.New(s.K)
	if err != nil {
		return Prediction{}, fmt.Errorf("twin: %v", err)
	}
	n, k := s.N, s.K
	q := n / k
	f := &fluid{k: k, t: float64(n) * float64(n-1)}
	cStop, ok := chooseEndgame(n, k, q)
	if !ok {
		return m.predictFluidOnly(s, f, q)
	}
	fr, err := f.integrate(n, cStop)
	if err != nil {
		return Prediction{}, err
	}
	ch, err := buildEndgame(p, n, cStop)
	if err != nil {
		return Prediction{}, err
	}
	var ids []int
	var ws []float64
	if cStop == 0 {
		// No fluid phase ran: the entry is the true all-initial state,
		// not a parity-mixed smoothing of it, and the answer is exact.
		entry := make([]int32, vecLen(k))
		entry[0] = int32(n)
		entryID, found := ch.lookup(entry)
		if !found {
			return Prediction{}, fmt.Errorf("twin: entry state %v missing from endgame chain", entry)
		}
		ids, ws = []int{entryID}, []float64{1}
	} else if ids, ws = entryDist(ch, f, fr.y); ids == nil {
		return Prediction{}, fmt.Errorf("twin: no entry weight on level %d for n=%d k=%d", cStop, n, k)
	}
	sol := newLevelSolver(ch)
	E, M, err := ch.moments(sol)
	if err != nil {
		return Prediction{}, err
	}
	// Mix moments over the entry distribution: the entry spread's own
	// variance lands in endVar through the mixture second moment.
	var entryE, entryM float64
	for i, id := range ids {
		entryE += ws[i] * E[id]
		entryM += ws[i] * M[id]
	}
	endVar := entryM - entryE*entryE
	if endVar < 0 {
		endVar = 0
	}
	// Density-dependent chains concentrate as 1/√n (Kurtz), so the fluid
	// phase's std is τ/√n, added in quadrature with the endgame variance.
	fStd := fr.tau / math.Sqrt(float64(n))
	pr := Prediction{
		N: n, K: k,
		Model:                m.Name(),
		Fidelity:             m.Fidelity(),
		ExpectedInteractions: fr.tau + entryE,
		StdInteractions:      math.Sqrt(endVar + fStd*fStd),
		RelErrBudget:         RelErrFluid,
		States:               ch.size(),
	}
	if s.Milestones {
		ms := make([]float64, q)
		copy(ms, fr.crossings)
		for j := cStop + 1; j <= q; j++ {
			Ej, err := ch.hitLevel(sol, j)
			if err != nil {
				return Prediction{}, err
			}
			var mix float64
			for i, id := range ids {
				mix += ws[i] * Ej[id]
			}
			ms[j-1] = fr.tau + mix
		}
		pr.Milestones = ms
	}
	finishPrediction(&pr)
	return pr, nil
}

// predictFluidOnly is the fallback when no endgame sub-chain fits (an
// extreme k whose level state space alone exceeds the budget): integrate
// the fluid to level q−1 — always crossable — and extrapolate the final
// level's cost from the previous one. The estimate is outside the gated
// accuracy envelope; the fidelity tag and RelErrBudget still say
// mean-field, and DESIGN.md §10 documents the degradation.
func (m *MeanField) predictFluidOnly(s Spec, f *fluid, q int) (Prediction, error) {
	if q < 2 {
		return Prediction{}, fmt.Errorf(
			"twin: n=%d k=%d is below the mean-field envelope and its exact chain exceeds the state budget", s.N, s.K)
	}
	fr, err := f.integrate(s.N, q-1)
	if err != nil {
		return Prediction{}, err
	}
	// The last level costs at least as much as the one before it; reusing
	// that cost is a deliberate (and reported) underestimate.
	tail := fr.tau
	if q >= 3 {
		tail = fr.tau - fr.crossings[q-3]
	}
	total := fr.tau + tail
	fStd := total / math.Sqrt(float64(s.N)) // the Kurtz spread, as in Predict
	pr := Prediction{
		N: s.N, K: s.K,
		Model:                m.Name(),
		Fidelity:             m.Fidelity(),
		ExpectedInteractions: total,
		StdInteractions:      fStd,
		RelErrBudget:         RelErrFluid,
	}
	if s.Milestones {
		ms := make([]float64, q)
		copy(ms, fr.crossings)
		ms[q-1] = total
		pr.Milestones = ms
	}
	finishPrediction(&pr)
	return pr, nil
}
