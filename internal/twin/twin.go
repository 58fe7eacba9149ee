package twin

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/stats"
)

// Fidelity tags how a prediction was produced — which rung of the ladder
// answered, and therefore which error-budget contract applies.
type Fidelity string

// The fidelity tags of the ladder's rungs.
const (
	// FidelityExact marks lumped-chain predictions: exact expectations up
	// to solver tolerance (RelErrExact).
	FidelityExact Fidelity = "exact-lumped"
	// FidelityFluid marks mean-field predictions: fluid-limit expectations
	// with an exact endgame correction, accurate to the RelErrFluid
	// budget on the committed validation grid.
	FidelityFluid Fidelity = "mean-field"
)

// The error-budget contract per rung: the relative error each rung is
// allowed against its ground truth (internal/markov exact values for
// rung 1, multi-trial simulation means for rung 2). `make twin-check`
// enforces these against TWIN_baseline.json; DESIGN.md §10 documents the
// contract.
const (
	// RelErrExact is rung 1's budget against exact full-chain values.
	RelErrExact = 0.001
	// RelErrFluid is rung 2's budget against simulation means.
	RelErrFluid = 0.10
)

// Spec identifies a prediction question: a population and group count,
// and optionally the per-milestone breakdown (expected interactions at
// each #gk arrival, the analytical counterpart of a trial's Marks).
type Spec struct {
	N          int  `json:"n"`
	K          int  `json:"k"`
	Milestones bool `json:"milestones,omitempty"`
}

// Validate checks the spec against the same (n, k) admission predicate
// the trial pipeline uses, so the oracle and the simulator agree on what
// a well-posed question is. Failures wrap harness.ErrInvalidSpec.
func (s Spec) Validate() error {
	return harness.ValidatePartition(s.N, s.K)
}

// Prediction is a model's answer with its provenance and error bars.
type Prediction struct {
	N int `json:"n"`
	K int `json:"k"`
	// Model names the rung that answered ("lumped" or "meanfield");
	// Fidelity tags its accuracy class.
	Model    string   `json:"model"`
	Fidelity Fidelity `json:"fidelity"`
	// ExpectedInteractions is the predicted mean number of interactions
	// from the all-initial configuration to the stable configuration.
	ExpectedInteractions float64 `json:"expected_interactions"`
	// StdInteractions is the predicted standard deviation of that time —
	// exact on rung 1; on rung 2 the fluid phase's 1/√n spread plus the
	// endgame's exact variance.
	StdInteractions float64 `json:"std_interactions"`
	// IntervalLow/IntervalHigh bound a single trial's stabilization time
	// with ~95% coverage (mean ± 1.96·std, clipped at 0).
	IntervalLow  float64 `json:"interval_low"`
	IntervalHigh float64 `json:"interval_high"`
	// RelErrBudget is the rung's documented accuracy contract for the
	// mean: RelErrExact or RelErrFluid.
	RelErrBudget float64 `json:"rel_err_budget"`
	// Milestones[j−1] is the expected number of interactions until #gk
	// first reaches j (the j-th complete group), for j = 1..⌊n/k⌋.
	// Present only when the spec asked for it.
	Milestones []float64 `json:"milestones,omitempty"`
	// States is the number of lumped states the answer solved over (the
	// whole chain on rung 1, the endgame sub-chain on rung 2).
	States int `json:"states,omitempty"`
}

// Model is one rung of the surrogate ladder.
type Model interface {
	// Name is the rung's short identifier, stable across releases (it is
	// part of the Prediction wire format).
	Name() string
	// Fidelity tags the rung's accuracy class.
	Fidelity() Fidelity
	// Supports reports whether the rung can answer for (n, k) within its
	// cost envelope. Specs must already be valid.
	Supports(n, k int) bool
	// Predict answers the spec. Invalid specs fail with an error wrapping
	// harness.ErrInvalidSpec.
	Predict(s Spec) (Prediction, error)
}

// DefaultStateBudget is the largest lumped chain Auto is willing to solve
// exactly before dropping to the mean-field rung: 200k states keeps the
// exact answer under ~1 s while covering populations far beyond
// internal/markov's full configuration graph.
const DefaultStateBudget = 200_000

// The shared default rungs: Lumped is stateless, MeanField caches its
// endgame chains, so Auto's repeat questions stay warm.
var (
	defaultLumped    = NewLumped(DefaultStateBudget)
	defaultMeanField = NewMeanField()
)

// Select returns the highest-fidelity rung that can answer (n, k) within
// the given state budget: the lumped chain when the reduced state space
// fits, the mean-field model otherwise.
func Select(n, k, budget int) Model {
	if LumpedFits(n, k, budget) {
		if budget == DefaultStateBudget {
			return defaultLumped
		}
		return NewLumped(budget)
	}
	return defaultMeanField
}

// Auto validates the spec, picks the rung with Select under the default
// budget, and answers. This is what POST /v1/predict and `kpart predict`
// call.
func Auto(s Spec) (Prediction, error) {
	if err := s.Validate(); err != nil {
		return Prediction{}, err
	}
	return Select(s.N, s.K, DefaultStateBudget).Predict(s)
}

// finishPrediction fills the derived interval fields from the mean and
// std, clipping the lower bound at 0 (a stabilization time is never
// negative; the normal approximation does not know that).
func finishPrediction(pr *Prediction) {
	iv := stats.PredictionInterval(pr.ExpectedInteractions, pr.StdInteractions, stats.Z95)
	pr.IntervalLow = math.Max(0, iv.Low())
	pr.IntervalHigh = iv.High()
}

// checkSpec is the shared entry guard of the rungs' Predict methods.
func checkSpec(s Spec) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	return nil
}
