package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// twoPoints is a baseline the gating tests move one number at a time.
func twoPoints() benchDoc {
	return benchDoc{GOMAXPROCS: 2, Points: []benchPoint{
		{Name: "classic/agent", N: 100, K: 4, Trials: 5, MeanInteractions: 2000,
			WallNSMean: 100, WallNSMedian: 90, WallNSP90: 150, InteractionsPerSec: 1e7},
		{Name: "count/count", N: 100, K: 4, Trials: 5, MeanInteractions: 2000,
			WallNSMean: 50, WallNSMedian: 45, WallNSP90: 70, InteractionsPerSec: 5e7},
	}}
}

// regressions returns the paths bench-diff gates on from base to cur.
func regressions(base, cur benchDoc) []string {
	var paths []string
	for _, f := range compareBench(base, cur) {
		if f.regressed {
			paths = append(paths, f.path)
		}
	}
	return paths
}

func TestFlattenKpartDocNamesPoints(t *testing.T) {
	d := twoPoints()
	d.Points = append(d.Points, benchPoint{Converged: 3})
	m := d.numbers()
	if m["points[classic/agent].interactions_per_sec"] != 1e7 || m["points[count/count].wall_ns_mean"] != 50 {
		t.Fatalf("named point paths missing: %v", m)
	}
	if m["points[2].converged"] != 3 {
		t.Fatalf("an unnamed point is not keyed by its index: %v", m)
	}
	if _, ok := m["points[classic/agent].converged"]; ok {
		t.Fatal("a zero converged count, absent from the file, is compared")
	}
}

// nproc is an info number like gomaxprocs, compared only when both
// documents record it, so documents written before it replay unchanged.
func TestNProcComparedOnlyWhenBothRecordIt(t *testing.T) {
	nproc := func(base, cur benchDoc) (finding, bool) {
		for _, f := range compareBench(base, cur) {
			if f.path == "nproc" {
				return f, true
			}
		}
		return finding{}, false
	}
	base, cur := twoPoints(), twoPoints()
	cur.NProc = 2
	if _, ok := nproc(base, cur); ok {
		t.Fatal("nproc compared against a document that lacks it")
	}
	base.NProc = 4
	f, ok := nproc(base, cur)
	if !ok || f.base != 4 || f.cur != 2 {
		t.Fatalf("nproc 4 -> 2 not compared: %+v", f)
	}
	if f.gate.direction != "" || f.regressed {
		t.Fatalf("nproc gates: %+v", f)
	}
}

// An injected >20% throughput drop must come back regressed.
func TestThroughputRegressionGates(t *testing.T) {
	cur := twoPoints()
	cur.Points[0].InteractionsPerSec = 7.8e6 // -22%
	if got, want := regressions(twoPoints(), cur), []string{"points[classic/agent].interactions_per_sec"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("regressions = %q, want %q", got, want)
	}
}

func TestSmallMovementPasses(t *testing.T) {
	cur := twoPoints()
	cur.Points[0].InteractionsPerSec = 8.9e6 // -11%
	if reg := regressions(twoPoints(), cur); len(reg) != 0 {
		t.Fatalf("11%% drop must pass, got %q", reg)
	}
}

func TestLatencyUsesWiderThreshold(t *testing.T) {
	cur := twoPoints()
	cur.Points[0].WallNSMedian = 135 // +50%: inside the 75% wall-time gate
	if reg := regressions(twoPoints(), cur); len(reg) != 0 {
		t.Fatalf("+50%% median must pass the wall-time gate, got %q", reg)
	}
	cur.Points[0].WallNSMedian = 180 // +100%
	if got, want := regressions(twoPoints(), cur), []string{"points[classic/agent].wall_ns_median"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("+100%% median: regressions = %q, want %q", got, want)
	}
}

func TestImprovementNeverGates(t *testing.T) {
	cur := twoPoints()
	cur.Points[0].InteractionsPerSec *= 2
	cur.Points[0].WallNSMean, cur.Points[0].WallNSMedian, cur.Points[0].WallNSP90 = 1, 1, 1
	if reg := regressions(twoPoints(), cur); len(reg) != 0 {
		t.Fatalf("improvements gated: %q", reg)
	}
}

func TestZeroBaselineNeverGates(t *testing.T) {
	base, cur := twoPoints(), twoPoints()
	base.Points[0].InteractionsPerSec, base.Points[0].WallNSP90 = 0, 0
	cur.Points[0].InteractionsPerSec = 0
	if reg := regressions(base, cur); len(reg) != 0 {
		t.Fatalf("zero baseline gated: %q", reg)
	}
}

// The bounds apply to each point on its own: only the point that moved
// is flagged.
func TestPerPointRulesApply(t *testing.T) {
	cur := twoPoints()
	cur.Points[1].InteractionsPerSec = 3.5e7 // -30%
	cur.Points[1].WallNSP90 = 140            // +100%
	want := []string{"points[count/count].interactions_per_sec", "points[count/count].wall_ns_p90"}
	if got := regressions(twoPoints(), cur); !reflect.DeepEqual(got, want) {
		t.Fatalf("regressions = %q, want %q", got, want)
	}
}

func TestRenderReportsVerdicts(t *testing.T) {
	cur := twoPoints()
	cur.Points[0].InteractionsPerSec = 7.8e6
	var b strings.Builder
	if n := renderBench(&b, compareBench(twoPoints(), cur), false); n != 1 {
		t.Fatalf("renderBench counted %d regressions, want 1", n)
	}
	out := b.String()
	if !strings.Contains(out, "points[classic/agent].interactions_per_sec") || !strings.Contains(out, "REGRESSED (>20% higher-better)") {
		t.Fatalf("render missing verdict:\n%s", out)
	}
	if !strings.HasSuffix(out, "17 metrics compared, 8 shown, 1 regressed\n") {
		t.Fatalf("render missing summary:\n%s", out)
	}
}

func TestLoadRejectsNonObject(t *testing.T) {
	dir := t.TempDir()
	for _, doc := range []string{`[1,2,3]`, `not json`} {
		path := filepath.Join(dir, "doc.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readBenchDoc(path); err == nil {
			t.Errorf("%s accepted as a benchmark document", doc)
		}
	}
}
