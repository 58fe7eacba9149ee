package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/harness"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEveryMetricPrinted runs each workload at a tiny size, untraced and
// traced, and checks that the run passes its checks and prints exactly
// the metrics BENCHMARK.json names, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	f := loadBenchmark(t)
	for _, w := range f.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			res, err := run(config{workload: name, seed: 7, dur: 300 * time.Millisecond, trace: traced, tiny: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", name, traced, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s reads %v", name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestChecksRejectWrongResults feeds the correctness checks wrong outputs.
func TestChecksRejectWrongResults(t *testing.T) {
	good := harness.TrialResult{Converged: true, Spread: 1}
	if err := checkTrial(good, nil); err != nil {
		t.Errorf("a converged trial with spread 1 failed: %v", err)
	}
	if checkTrial(harness.TrialResult{Converged: true, Spread: 2}, nil) == nil {
		t.Error("a group-size spread of 2 passed")
	}
	if checkTrial(harness.TrialResult{Spread: 0}, nil) == nil {
		t.Error("an unconverged trial passed")
	}

	body := []byte(`{"spec_key":"k","result":{},"wall_us":12}` + "\n")
	hit := reply{status: http.StatusOK, cache: "lru", body: body}
	if err := checkHit(hit, body); err != nil {
		t.Errorf("an identical hit failed: %v", err)
	}
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)-3] = '3'
	if checkHit(reply{status: http.StatusOK, cache: "lru", body: corrupt}, body) == nil {
		t.Error("a corrupted hit body passed")
	}
	if checkHit(reply{status: http.StatusOK, cache: "miss", body: body}, body) == nil {
		t.Error("a hit answered as a miss passed")
	}

	spec := harness.TrialSpec{N: 96, K: 4, Seed: 1, Engine: harness.EngineCount}
	miss := func(key string, spread int) reply {
		b, err := json.Marshal(map[string]any{"spec_key": key, "result": map[string]any{"Converged": true, "Spread": spread}})
		if err != nil {
			t.Fatal(err)
		}
		return reply{status: http.StatusOK, cache: "miss", body: b}
	}
	if err := checkMiss(miss(harness.SpecKey(spec), 0), spec); err != nil {
		t.Errorf("a good miss failed: %v", err)
	}
	if checkMiss(miss("other", 0), spec) == nil {
		t.Error("a miss for another spec passed")
	}
	if checkMiss(miss(harness.SpecKey(spec), 2), spec) == nil {
		t.Error("a miss with group-size spread 2 passed")
	}

	for _, e := range []string{"0", "-5", "null"} {
		rep := reply{status: http.StatusOK, body: []byte(`{"prediction":{"expected_interactions":` + e + `}}`)}
		if _, err := checkPredict(rep); err == nil {
			t.Errorf("a prediction of %s interactions passed", e)
		}
	}
	if _, err := checkPredict(reply{status: http.StatusOK, body: []byte(`{"prediction":{"expected_interactions":12.5}}`)}); err != nil {
		t.Errorf("a good prediction failed: %v", err)
	}
}

// TestFailedCheckMarksResult checks that one failed check makes the
// result line say correct=false.
func TestFailedCheckMarksResult(t *testing.T) {
	var tl tally
	tl.check(nil)
	tl.check(checkTrial(harness.TrialResult{Converged: true, Spread: 2}, nil))
	res, err := buildResult(false, map[string]float64{}, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 2 1", res.Correct, res.Attempted, res.Failed)
	}
}
