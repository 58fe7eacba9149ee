package twin

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Cross-validation hooks: the accuracy gate (`kpart twin-check`) and the
// package tests both need "compare a rung against its ground truth" as a
// reusable operation, so it lives here rather than in either caller.
//
// Rung 1's ground truth is internal/markov — the same chain without the
// lumping, solved over full configurations. Rung 2's ground truth is
// multi-trial simulation, summarized by a Welford accumulator per metric.

// ExactReport compares the lumped rung against internal/markov for one
// (n, k). All relative errors are |twin − exact| / (1 + |exact|).
type ExactReport struct {
	N int `json:"n"`
	K int `json:"k"`
	// Mean/Std/Milestones carry the twin's values; the Exact* fields the
	// full-chain ground truth.
	Mean            float64   `json:"mean"`
	ExactMean       float64   `json:"exact_mean"`
	Std             float64   `json:"std"`
	ExactStd        float64   `json:"exact_std"`
	Milestones      []float64 `json:"milestones"`
	ExactMilestones []float64 `json:"exact_milestones"`
	// MaxRelErr is the worst relative error across the mean, the std, and
	// every milestone.
	MaxRelErr float64 `json:"max_rel_err"`
}

// relErr is the comparison metric of the accuracy gate: absolute for
// near-zero ground truth, relative otherwise.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / (1 + math.Abs(want))
}

// CrossValidateExact runs the lumped rung and internal/markov on the same
// (n, k) and reports the disagreement. It is the rung 1 leg of the
// accuracy gate; tests assert MaxRelErr ≤ RelErrExact (in practice the
// agreement is at solver tolerance, ~1e−9).
func CrossValidateExact(n, k int) (ExactReport, error) {
	rep := ExactReport{N: n, K: k}
	pr, err := NewLumped().Predict(Spec{N: n, K: k, Milestones: true})
	if err != nil {
		return rep, err
	}
	p := harness.Proto(k)
	ch, err := markov.New(p, n)
	if err != nil {
		return rep, fmt.Errorf("twin: exact reference: %w", err)
	}
	E, err := ch.HittingTimes(0, 0)
	if err != nil {
		return rep, fmt.Errorf("twin: exact reference: %w", err)
	}
	M, err := ch.SecondMoments(E, 0, 0)
	if err != nil {
		return rep, fmt.Errorf("twin: exact reference: %w", err)
	}
	exactVar := M[0] - E[0]*E[0]
	if exactVar < 0 {
		exactVar = 0
	}
	exactMs, err := ch.MilestonesFrom(p, n)
	if err != nil {
		return rep, fmt.Errorf("twin: exact reference: %w", err)
	}
	rep.Mean, rep.ExactMean = pr.ExpectedInteractions, E[0]
	rep.Std, rep.ExactStd = pr.StdInteractions, math.Sqrt(exactVar)
	rep.Milestones, rep.ExactMilestones = pr.Milestones, exactMs
	rep.MaxRelErr = relErr(rep.Mean, rep.ExactMean)
	if e := relErr(rep.Std, rep.ExactStd); e > rep.MaxRelErr {
		rep.MaxRelErr = e
	}
	if len(pr.Milestones) != len(exactMs) {
		return rep, fmt.Errorf("twin: milestone count mismatch: lumped %d, exact %d",
			len(pr.Milestones), len(exactMs))
	}
	for i := range exactMs {
		if e := relErr(pr.Milestones[i], exactMs[i]); e > rep.MaxRelErr {
			rep.MaxRelErr = e
		}
	}
	return rep, nil
}

// SimReport compares a prediction against multi-trial simulation means for
// one (n, k).
type SimReport struct {
	N      int `json:"n"`
	K      int `json:"k"`
	Trials int `json:"trials"`
	// Model is the rung that produced the prediction.
	Model string `json:"model"`
	// Mean is the predicted expectation; SimMean/SimHalf95 the simulated
	// mean and its 95% confidence half-width.
	Mean      float64 `json:"mean"`
	SimMean   float64 `json:"sim_mean"`
	SimHalf95 float64 `json:"sim_half95"`
	// Std is the predicted per-trial dispersion, SimStd the sample one.
	Std    float64 `json:"std"`
	SimStd float64 `json:"sim_std"`
	// Milestones / SimMilestones are per-#gk-arrival expectations.
	Milestones    []float64 `json:"milestones,omitempty"`
	SimMilestones []float64 `json:"sim_milestones,omitempty"`
	// RelErr is the worst error across the mean (relative) and the
	// milestones (normalized by the simulated stabilization mean, i.e. on
	// the global timescale). Milestones are judged globally because the
	// fluid's quasi-steady parity substitution skips the initial mixing
	// transient: every early crossing carries a small constant offset that
	// is enormous relative to ms[1] ≈ a few interactions and invisible
	// relative to the run. Dispersion is intentionally excluded: it has
	// its own looser contract, checked as an order-of-magnitude bound.
	RelErr float64 `json:"rel_err"`
}

// BaselinePoint is one committed simulation reference: the summarized
// trial statistics for a single (n, k), as stored in TWIN_baseline.json.
// Committing the summary (not the trials) keeps the accuracy gate cheap —
// `make twin-check` re-answers the spec with the live model but replays
// the expensive simulation side from this record; `kpart twin-check
// -write` regenerates it deterministically from (Seed, Trials).
type BaselinePoint struct {
	N      int `json:"n"`
	K      int `json:"k"`
	Trials int `json:"trials"`
	// Seed is the root seed the trials were derived from via
	// rng.StreamSeed; with Trials it makes the point reproducible.
	Seed uint64 `json:"seed"`
	// SimMean/SimStd/SimHalf95 summarize interactions-to-stabilization.
	SimMean   float64 `json:"sim_mean"`
	SimStd    float64 `json:"sim_std"`
	SimHalf95 float64 `json:"sim_half95"`
	// SimMilestones[j−1] is the mean interaction count at the j-th #gk
	// arrival, present when the point was generated with milestones.
	SimMilestones []float64 `json:"sim_milestones,omitempty"`
}

// Spec returns the prediction question this baseline point answers.
func (bp BaselinePoint) Spec() Spec {
	return Spec{N: bp.N, K: bp.K, Milestones: len(bp.SimMilestones) > 0}
}

// SimBaseline runs trials for the spec, seeded from root via
// rng.StreamSeed, and summarizes them into a BaselinePoint. This is the
// generation half of the accuracy gate (`kpart twin-check -write`).
func SimBaseline(s Spec, trials int, root uint64) (BaselinePoint, error) {
	bp := BaselinePoint{N: s.N, K: s.K, Trials: trials, Seed: root}
	if trials < 2 {
		return bp, fmt.Errorf("twin: need at least 2 trials, got %d", trials)
	}
	var total stats.Welford
	var marks []stats.Welford
	for i := 0; i < trials; i++ {
		res, err := harness.RunTrial(harness.TrialSpec{
			N: s.N, K: s.K,
			Grouping: s.Milestones,
			Seed:     rng.StreamSeed(root, uint64(s.N), uint64(s.K), uint64(i)),
		})
		if err != nil {
			return bp, fmt.Errorf("twin: sim reference trial %d: %w", i, err)
		}
		total.AddUint64(res.Interactions)
		if s.Milestones {
			if marks == nil {
				marks = make([]stats.Welford, len(res.Marks))
			}
			if len(res.Marks) != len(marks) {
				return bp, fmt.Errorf("twin: trial %d recorded %d marks, want %d",
					i, len(res.Marks), len(marks))
			}
			for j, m := range res.Marks {
				marks[j].AddUint64(m)
			}
		}
	}
	iv := total.CI95()
	bp.SimMean, bp.SimStd, bp.SimHalf95 = total.Mean(), total.Std(), iv.Half
	if s.Milestones {
		bp.SimMilestones = make([]float64, len(marks))
		for j := range marks {
			bp.SimMilestones[j] = marks[j].Mean()
		}
	}
	return bp, nil
}

// CompareBaseline answers the baseline point's spec with the model and
// reports the disagreement against the committed simulation statistics.
// This is the enforcement half of the accuracy gate: it never simulates.
func CompareBaseline(model Model, bp BaselinePoint) (SimReport, error) {
	s := bp.Spec()
	rep := SimReport{N: s.N, K: s.K, Trials: bp.Trials, Model: model.Name()}
	pr, err := model.Predict(s)
	if err != nil {
		return rep, err
	}
	rep.Mean, rep.SimMean, rep.SimHalf95 = pr.ExpectedInteractions, bp.SimMean, bp.SimHalf95
	rep.Std, rep.SimStd = pr.StdInteractions, bp.SimStd
	rep.RelErr = relErr(rep.Mean, rep.SimMean)
	if s.Milestones {
		if len(pr.Milestones) != len(bp.SimMilestones) {
			return rep, fmt.Errorf("twin: baseline n=%d k=%d has %d milestones, predicted %d",
				bp.N, bp.K, len(bp.SimMilestones), len(pr.Milestones))
		}
		rep.Milestones = pr.Milestones
		rep.SimMilestones = bp.SimMilestones
		for j := range bp.SimMilestones {
			if e := math.Abs(pr.Milestones[j]-bp.SimMilestones[j]) / (1 + rep.SimMean); e > rep.RelErr {
				rep.RelErr = e
			}
		}
	}
	return rep, nil
}
