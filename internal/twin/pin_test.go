package twin

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// pinnedQuestions covers every path a prediction can take: the lumped
// rung with and without milestones, a dozen cold mean-field answers
// from serve-mix's question grid (n in [200, 5000), k in {4, 5, 6, 8}),
// large populations, mean-field milestones, and the fluid-only
// fallback of an extreme k. -short skips the long ones: (30, 4) solves
// its lowest levels, thousands of nodes each, by Gauss–Seidel.
var pinnedQuestions = []struct {
	rung string // "lumped" or "meanfield"
	spec Spec
	long bool
}{
	{"lumped", Spec{N: 13, K: 3, Milestones: true}, false},
	{"lumped", Spec{N: 30, K: 4}, true},
	{"meanfield", Spec{N: 200, K: 4}, false},
	{"meanfield", Spec{N: 377, K: 5}, false},
	{"meanfield", Spec{N: 611, K: 6}, false},
	{"meanfield", Spec{N: 960, K: 8}, false},
	{"meanfield", Spec{N: 1000, K: 4}, false},
	{"meanfield", Spec{N: 1499, K: 5}, false},
	{"meanfield", Spec{N: 2048, K: 6}, false},
	{"meanfield", Spec{N: 2503, K: 4}, false},
	{"meanfield", Spec{N: 3119, K: 8}, false},
	{"meanfield", Spec{N: 3750, K: 5}, false},
	{"meanfield", Spec{N: 4242, K: 6}, false},
	{"meanfield", Spec{N: 4999, K: 4}, false},
	{"meanfield", Spec{N: 100_000, K: 8}, false},
	{"meanfield", Spec{N: 1_000_000, K: 4}, false},
	{"meanfield", Spec{N: 960, K: 4, Milestones: true}, false},
	{"meanfield", Spec{N: 2000, K: 3, Milestones: true}, false},
	{"meanfield", Spec{N: 500, K: 8}, false}, // fluid-only: no endgame fits
}

// pinnedPredictionsPath holds one JSON line per pinned question, a
// pinnedPrediction marshalled from predictPinned's answer. It was
// recorded with the dense per-level LU solver.
var pinnedPredictionsPath = filepath.Join("testdata", "pinned_predictions.txt")

type pinnedPrediction struct {
	Rung       string     `json:"rung"`
	Spec       Spec       `json:"spec"`
	Prediction Prediction `json:"prediction"`
}

// predictPinned answers one pinned question cold, on a fresh rung.
func predictPinned(rung string, s Spec) (Prediction, error) {
	switch rung {
	case "lumped":
		return NewLumped(DefaultStateBudget).Predict(s)
	case "meanfield":
		return NewMeanField().Predict(s)
	}
	return Prediction{}, fmt.Errorf("unknown rung %q", rung)
}

// Every pinned answer keeps its rung, model, fidelity and state count
// exactly, and every float within 1e-9 relative of the fixture: the
// solvers may reorder their arithmetic, but not change what they solve.
func TestPredictionsPinned(t *testing.T) {
	f, err := os.Open(pinnedPredictionsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []pinnedPrediction
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec pinnedPrediction
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s line %d: %v", pinnedPredictionsPath, len(want)+1, err)
		}
		want = append(want, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(pinnedQuestions) {
		t.Fatalf("%s holds %d answers, want one per pinned question (%d)", pinnedPredictionsPath, len(want), len(pinnedQuestions))
	}
	const tol = 1e-9
	for i, q := range pinnedQuestions {
		w := want[i]
		if w.Rung != q.rung || w.Spec != q.spec {
			t.Fatalf("%s line %d answers %s %+v, want %s %+v", pinnedPredictionsPath, i+1, w.Rung, w.Spec, q.rung, q.spec)
		}
		if q.long && testing.Short() {
			continue
		}
		got, err := predictPinned(q.rung, q.spec)
		if err != nil {
			t.Fatalf("%s %+v: %v", q.rung, q.spec, err)
		}
		wp := w.Prediction
		if got.N != wp.N || got.K != wp.K || got.Model != wp.Model || got.Fidelity != wp.Fidelity || got.States != wp.States {
			t.Errorf("%s %+v: answered n=%d k=%d by %s/%s over %d states, want n=%d k=%d by %s/%s over %d states",
				q.rung, q.spec, got.N, got.K, got.Model, got.Fidelity, got.States, wp.N, wp.K, wp.Model, wp.Fidelity, wp.States)
		}
		floats := []struct {
			name      string
			got, want float64
		}{
			{"expected_interactions", got.ExpectedInteractions, wp.ExpectedInteractions},
			{"std_interactions", got.StdInteractions, wp.StdInteractions},
			{"interval_low", got.IntervalLow, wp.IntervalLow},
			{"interval_high", got.IntervalHigh, wp.IntervalHigh},
			{"rel_err_budget", got.RelErrBudget, wp.RelErrBudget},
		}
		if len(got.Milestones) != len(wp.Milestones) {
			t.Errorf("%s %+v: %d milestones, want %d", q.rung, q.spec, len(got.Milestones), len(wp.Milestones))
			continue
		}
		for j := range wp.Milestones {
			floats = append(floats, struct {
				name      string
				got, want float64
			}{fmt.Sprintf("milestone %d", j+1), got.Milestones[j], wp.Milestones[j]})
		}
		for _, fl := range floats {
			if d := math.Abs(fl.got - fl.want); d > tol*math.Abs(fl.want) {
				t.Errorf("%s %+v: %s = %.17g, want %.17g (rel diff %.3g)",
					q.rung, q.spec, fl.name, fl.got, fl.want, d/math.Abs(fl.want))
			}
		}
	}
}
