package harness

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRunTrialStabilizes(t *testing.T) {
	res, err := RunTrial(TrialSpec{N: 20, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Interactions == 0 {
		t.Fatalf("%+v", res)
	}
	if res.Spread > 1 {
		t.Fatalf("spread %d", res.Spread)
	}
}

func TestRunTrialGroupingMarks(t *testing.T) {
	res, err := RunTrial(TrialSpec{N: 22, K: 4, Seed: 2, Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Marks) != 22/4 {
		t.Fatalf("got %d marks, want 5", len(res.Marks))
	}
}

func TestRunTrialRejectsTinyN(t *testing.T) {
	if _, err := RunTrial(TrialSpec{N: 2, K: 3, Seed: 1}); err == nil {
		t.Fatal("n=2 accepted")
	}
}

func TestRunTrialDeterministic(t *testing.T) {
	a, err := RunTrial(TrialSpec{N: 30, K: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(TrialSpec{N: 30, K: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interactions != b.Interactions || a.Productive != b.Productive {
		t.Fatalf("same seed, different outcomes: %d vs %d", a.Interactions, b.Interactions)
	}
}

func TestProtoCacheSharesInstances(t *testing.T) {
	if Proto(4) != Proto(4) {
		t.Fatal("cache returned distinct instances")
	}
	if Proto(4) == Proto(5) {
		t.Fatal("cache conflated different k")
	}
}

// RunManyCtx must return results in input order regardless of worker count,
// and match serial execution exactly.
func TestRunManyOrderAndDeterminism(t *testing.T) {
	specs := make([]TrialSpec, 12)
	for i := range specs {
		specs[i] = TrialSpec{N: 15 + i, K: 3, Seed: uint64(100 + i)}
	}
	serial := make([]TrialResult, len(specs))
	for i, s := range specs {
		r, err := RunTrial(s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := RunManyCtx(context.Background(), specs, workers, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Interactions != serial[i].Interactions || got[i].Spec.N != specs[i].N {
				t.Fatalf("workers=%d: result %d diverged", workers, i)
			}
		}
	}
}

func TestRunManySurfacesErrors(t *testing.T) {
	specs := []TrialSpec{{N: 20, K: 3, Seed: 1}, {N: 1, K: 3, Seed: 2}}
	if _, err := RunManyCtx(context.Background(), specs, 2, RunOptions{}); err == nil {
		t.Fatal("invalid spec not surfaced")
	}
}

func TestAggregateBasics(t *testing.T) {
	capped := TrialResult{Interactions: 1000, Converged: false}
	for _, c := range []struct {
		name     string
		trials   []TrialResult
		mean     float64
		min, max uint64
	}{
		{"mixed", []TrialResult{
			{Interactions: 100, Converged: true},
			{Interactions: 200, Converged: true},
			{Interactions: 300, Converged: true},
			{Interactions: 5, Converged: false},
		}, 200, 100, 300},
		// Min and Max skip unconverged trials wherever they stand.
		{"unconverged first", []TrialResult{capped, {Interactions: 100, Converged: true}, {Interactions: 200, Converged: true}}, 150, 100, 200},
		{"unconverged last", []TrialResult{{Interactions: 100, Converged: true}, {Interactions: 200, Converged: true}, capped}, 150, 100, 200},
		{"none converged", []TrialResult{capped, capped}, 0, 0, 0},
	} {
		pt := Aggregate(12, 4, c.trials)
		if pt.Mean != c.mean || pt.Min != c.min || pt.Max != c.max {
			t.Errorf("%s: mean/min/max %v %d %d, want %v %d %d", c.name, pt.Mean, pt.Min, pt.Max, c.mean, c.min, c.max)
		}
		unconverged := 0
		for _, tr := range c.trials {
			if !tr.Converged {
				unconverged++
			}
		}
		if pt.Unconverged != unconverged {
			t.Errorf("%s: unconverged %d, want %d", c.name, pt.Unconverged, unconverged)
		}
		if dispersed := c.min != c.max; (pt.CI95 > 0) != dispersed {
			t.Errorf("%s: CI95 %v for a sample with min %d and max %d", c.name, pt.CI95, c.min, c.max)
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	pt := Aggregate(10, 2, nil)
	if pt.Mean != 0 || pt.Trials != 0 {
		t.Fatalf("%+v", pt)
	}
}

func TestAggregateDeltasSumToMean(t *testing.T) {
	// Two converged trials of (n=9, k=3): 3 groupings, no remainder.
	trials := []TrialResult{
		{Interactions: 100, Converged: true, Marks: []uint64{10, 40, 100}},
		{Interactions: 200, Converged: true, Marks: []uint64{20, 80, 200}},
	}
	pt := Aggregate(9, 3, trials)
	if len(pt.MeanDeltas) != 3 {
		t.Fatalf("deltas %v", pt.MeanDeltas)
	}
	sum := 0.0
	for _, d := range pt.MeanDeltas {
		sum += d
	}
	if sum != pt.Mean {
		t.Fatalf("deltas sum %v != mean %v", sum, pt.Mean)
	}
	// With a remainder (n=11, k=3): tail column appears.
	trials = []TrialResult{
		{Interactions: 150, Converged: true, Marks: []uint64{10, 40, 100}},
	}
	pt = Aggregate(11, 3, trials)
	if len(pt.MeanDeltas) != 4 {
		t.Fatalf("tail column missing: %v", pt.MeanDeltas)
	}
	if pt.MeanDeltas[3] != 50 {
		t.Fatalf("tail %v", pt.MeanDeltas[3])
	}
}

func TestSweepPointAggregates(t *testing.T) {
	pt, err := SweepPointCtx(context.Background(), SweepSpec{
		TrialSpec: TrialSpec{N: 16, K: 4, Seed: 7}, Trials: 8, Workers: 4,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Trials != 8 || pt.Unconverged != 0 || pt.Mean <= 0 {
		t.Fatalf("%+v", pt)
	}
}

// cellsOf lists the (n, k) cells of ns × ks, k-major.
func cellsOf(ks, ns []int) [][2]int {
	var cells [][2]int
	for _, k := range ks {
		for _, n := range ns {
			cells = append(cells, [2]int{n, k})
		}
	}
	return cells
}

func TestRunFig3Small(t *testing.T) {
	base := SweepSpec{TrialSpec: TrialSpec{Seed: 3}, Trials: 5, Workers: 4}
	pts, err := RunGridCtx(context.Background(), base, cellsOf([]int{3}, []int{5, 6, 7, 8, 9, 10, 11, 12}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("%d points, want 8", len(pts))
	}
	for i, p := range pts {
		if p.N != 5+i || p.K != 3 || p.Trials != 5 || p.Mean <= 0 || p.Unconverged > 0 {
			t.Fatalf("bad point %d: %+v", i, p)
		}
	}
}

func TestRunFig5Small(t *testing.T) {
	base := SweepSpec{TrialSpec: TrialSpec{Seed: 11}, Trials: 3, PointID: 1 << 20, Workers: 4}
	pts, err := RunGridCtx(context.Background(), base, cellsOf([]int{3, 4}, []int{12, 24}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{12, 3}, {24, 3}, {12, 4}, {24, 4}}
	if len(pts) != len(want) {
		t.Fatalf("%d points, want %d", len(pts), len(want))
	}
	for i, p := range pts {
		if [2]int{p.N, p.K} != want[i] || p.Mean <= 0 {
			t.Fatalf("point %d: %+v, want (n, k) = %v", i, p, want[i])
		}
	}
}

func TestRunFig6Small(t *testing.T) {
	base := SweepSpec{TrialSpec: TrialSpec{Seed: 13}, Trials: 3, PointID: 1 << 21, Workers: 4}
	pts, err := RunGridCtx(context.Background(), base, cellsOf([]int{2, 3, 4}, []int{24}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	for i, p := range pts {
		if p.N != 24 || p.K != 2+i || p.Mean <= 0 {
			t.Fatalf("%+v", p)
		}
	}
}

// Cell i of a grid is the sweep point of base at the cell's (n, k) under
// point ID base.PointID+i, and an empty grid has no points.
func TestRunGridCellIsSweepPoint(t *testing.T) {
	base := SweepSpec{TrialSpec: TrialSpec{Seed: 5, Grouping: true, Engine: EngineCount}, Trials: 4, PointID: 40, Workers: 2}
	cells := [][2]int{{9, 4}, {7, 3}, {10, 4}}
	pts, err := RunGridCtx(context.Background(), base, cells, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		s := base
		s.N, s.K, s.PointID = cell[0], cell[1], base.PointID+uint64(i)
		want, err := SweepPointCtx(context.Background(), s, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pts[i], want) {
			t.Errorf("cell %d: %+v, want %+v", i, pts[i], want)
		}
	}
	if pts, err := RunGridCtx(context.Background(), base, nil, RunOptions{}); pts != nil || err != nil {
		t.Errorf("empty grid: %v, %v; want nil, nil", pts, err)
	}
}

func TestCompareRunsAllContenders(t *testing.T) {
	rows, err := Compare(16, 4, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // k=4 is a power of two: all three run
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Unconverged > 0 || r.Mean <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
	// The paper's protocol must win on worst spread.
	if rows[0].WorstSpread > 1 {
		t.Fatalf("paper protocol spread %d", rows[0].WorstSpread)
	}
	// State budget claims.
	if rows[0].States != 10 || rows[1].States != 10 || rows[2].States != 10 {
		t.Fatalf("state counts %d %d %d", rows[0].States, rows[1].States, rows[2].States)
	}
}

func TestCompareSkipsUnsupported(t *testing.T) {
	rows, err := Compare(15, 5, 2, 22)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "repeated bipartition" {
			t.Fatal("k=5 should not run the power-of-two contender")
		}
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestSchedulerAblation(t *testing.T) {
	rows, err := RunSchedulerAblation(12, 3, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Unconverged > 0 {
			t.Fatalf("%s did not converge", r.Scheduler)
		}
		if r.Mean <= 0 {
			t.Fatalf("%s mean %v", r.Scheduler, r.Mean)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	series := []KSeries{{K: 3, Points: []Point{
		{N: 6, K: 3, Trials: 2, Mean: 50, Min: 40, Max: 60, MeanDeltas: []float64{20, 30}},
		{N: 9, K: 3, Trials: 2, Mean: 80, Min: 70, Max: 90, MeanDeltas: []float64{20, 25, 35}},
	}}}
	if s := ToSeries(series[0]); len(s.X) != 2 || s.Name != "k=3" {
		t.Fatalf("%+v", s)
	}
	if tb := SweepTable(series); len(tb.Rows) != 2 {
		t.Fatal("sweep table rows")
	}
	if tb := GroupingTable(series[0]); len(tb.Header) != 4 { // n + 3 groupings
		t.Fatalf("grouping header %v", tb.Header)
	}
	bars := GroupingBars(series[0])
	if len(bars.X) != 2 || len(bars.Segments) != 3 {
		t.Fatalf("bars %+v", bars)
	}
	pts := []Point{{N: 24, K: 2, Mean: 10}, {N: 24, K: 4, Mean: 100}}
	if s := Fig6Series(pts); len(s.X) != 2 || !strings.Contains(s.Name, "24") {
		t.Fatalf("%+v", s)
	}
	if tb := Fig6Table(pts); len(tb.Rows) != 2 {
		t.Fatal("fig6 table")
	}
	readout, err := GrowthReadout("fig6", []float64{2, 4, 6, 8}, []float64{10, 100, 1000, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(readout, "exponential") {
		t.Fatalf("readout %q", readout)
	}
}

func TestCompareAndSchedulerTables(t *testing.T) {
	ct := CompareTable([]CompareResult{{Name: "x", N: 10, K: 2, States: 4, Trials: 1, Mean: 5}})
	if len(ct.Rows) != 1 {
		t.Fatal("compare table")
	}
	st := SchedulerTable([]SchedulerAblationRow{{Scheduler: "random", N: 10, K: 2, Trials: 1, Mean: 5}})
	if len(st.Rows) != 1 {
		t.Fatal("scheduler table")
	}
}

func TestWriteCSVFile(t *testing.T) {
	dir := t.TempDir()
	tb := SweepTable([]KSeries{{K: 2, Points: []Point{{N: 5, K: 2, Trials: 1, Mean: 9}}}})
	path, err := WriteCSVFile(filepath.Join(dir, "sub"), "fig.csv", tb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "mean_interactions") {
		t.Fatalf("csv content %q", data)
	}
}

func TestSeedForCellMatchesSweep(t *testing.T) {
	// The seed SweepSpec.Specs gives (pointID=5, trial=3) must equal
	// SeedForCell's derivation — the re-run-a-cell contract.
	want := SeedForCell(42, 5, 3)
	got := SweepSpec{TrialSpec: TrialSpec{N: 12, K: 3, Seed: 42}, Trials: 4, PointID: 5}.Specs()[3].Seed
	if want != got {
		t.Fatalf("Specs seeds trial 3 with %#x, SeedForCell gives %#x", got, want)
	}
	if SeedForCell(42, 5, 4) == want || SeedForCell(42, 6, 3) == want {
		t.Fatal("seed collisions across cells")
	}
}

// readDoc reads back a ResultDoc that SaveJSON wrote.
func readDoc(t *testing.T, path string) ResultDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	doc := ResultDoc{
		Experiment: "fig6",
		Seed:       42,
		Trials:     10,
		Points:     []Point{{N: 960, K: 4, Trials: 10, Mean: 123.4, CI95: 5.6, Min: 100, Max: 150}},
	}
	path, err := SaveJSON(dir, "fig6.json", doc)
	if err != nil {
		t.Fatal(err)
	}
	got := readDoc(t, path)
	if got.Experiment != "fig6" || got.Seed != 42 || len(got.Points) != 1 {
		t.Fatalf("%+v", got)
	}
	if g, w := got.Points[0], doc.Points[0]; g.N != w.N || g.K != w.K || g.Mean != w.Mean ||
		g.CI95 != w.CI95 || g.Min != w.Min || g.Max != w.Max {
		t.Fatalf("point mismatch: %+v vs %+v", g, w)
	}
	if got.CreatedAt == "" {
		t.Fatal("CreatedAt not stamped")
	}
}

func TestSaveJSONSeriesForm(t *testing.T) {
	dir := t.TempDir()
	doc := ResultDoc{
		Experiment: "fig3",
		Seed:       7,
		Trials:     2,
		Series: []KSeries{{K: 4, Points: []Point{
			{N: 8, K: 4, Trials: 2, Mean: 50, MeanDeltas: []float64{20, 30}},
		}}},
	}
	path, err := SaveJSON(dir, "fig3.json", doc)
	if err != nil {
		t.Fatal(err)
	}
	got := readDoc(t, path)
	if len(got.Series) != 1 || len(got.Series[0].Points[0].MeanDeltas) != 2 {
		t.Fatalf("%+v", got)
	}
}

func TestRunTrialCountEngine(t *testing.T) {
	res, err := RunTrial(TrialSpec{N: 30, K: 4, Seed: 5, Engine: EngineCount})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Spread > 1 {
		t.Fatalf("%+v", res)
	}
	// Null skipping means strictly more interactions than productive steps.
	if res.Productive >= res.Interactions {
		t.Fatalf("no null interactions recorded: %d/%d", res.Productive, res.Interactions)
	}
}

func TestRunTrialCountEngineGrouping(t *testing.T) {
	res, err := RunTrial(TrialSpec{N: 22, K: 4, Seed: 2, Grouping: true, Engine: EngineCount})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Marks) != 22/4 {
		t.Fatalf("count engine recorded %d marks, want 5", len(res.Marks))
	}
	var prev uint64
	for i, m := range res.Marks {
		if m < prev || m > res.Interactions {
			t.Fatalf("mark %d = %d out of order", i, m)
		}
		prev = m
	}
}

// The two engines must agree on mean interactions (same distribution):
// z-test over a moderate sample at one point.
func TestEnginesAgreeOnMeans(t *testing.T) {
	const n, k, trials = 18, 3, 2000
	var sums [2]float64
	var sumsqs [2]float64
	for e, engine := range []Engine{EngineAgent, EngineCount} {
		for i := 0; i < trials; i++ {
			res, err := RunTrial(TrialSpec{N: n, K: k, Engine: engine,
				Seed: SeedForCell(uint64(0xe0+e), 0, i)})
			if err != nil || !res.Converged {
				t.Fatalf("%v", err)
			}
			x := float64(res.Interactions)
			sums[e] += x
			sumsqs[e] += x * x
		}
	}
	mean0, mean1 := sums[0]/trials, sums[1]/trials
	var0 := (sumsqs[0] - sums[0]*sums[0]/trials) / (trials - 1)
	var1 := (sumsqs[1] - sums[1]*sums[1]/trials) / (trials - 1)
	se := math.Sqrt(var0/trials + var1/trials)
	if diff := math.Abs(mean0 - mean1); diff > 4*se {
		t.Fatalf("engine means diverge: %.2f vs %.2f (diff %.2f > 4·SE %.2f)", mean0, mean1, diff, 4*se)
	}
}

func TestRunTrajectory(t *testing.T) {
	series, err := RunTrajectory(TrajectoryConfig{N: 24, Ks: []int{3, 4}, Trials: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.X) < 5 {
			t.Fatalf("k=%d: only %d samples", s.K, len(s.X))
		}
		// Spread starts at 0 (all agents in group 1... spread over k
		// groups of the all-initial config is n vs 0 = n? No: all agents
		// are in group 1, so spread = n − 0 = n. First sample is the
		// initial config.
		if s.MeanSpread[0] != 24 {
			t.Fatalf("k=%d: initial spread %v, want 24", s.K, s.MeanSpread[0])
		}
		// The final sample must be well below the initial spread and most
		// trials stable by the horizon (1.2 × a pilot mean).
		last := len(s.X) - 1
		if s.MeanSpread[last] > 2 {
			t.Fatalf("k=%d: final mean spread %v", s.K, s.MeanSpread[last])
		}
		if s.StableFrac[0] != 0 {
			t.Fatalf("k=%d: stable at time 0", s.K)
		}
		// Stable fraction is monotone non-decreasing.
		for i := 1; i < len(s.StableFrac); i++ {
			if s.StableFrac[i] < s.StableFrac[i-1] {
				t.Fatalf("k=%d: stable fraction decreased at %d", s.K, i)
			}
		}
	}
	if tb := TrajectoryTable(series); len(tb.Rows) == 0 {
		t.Fatal("empty trajectory table")
	}
	if ch := TrajectoryChart(series); len(ch.Series) != 2 {
		t.Fatal("chart series")
	}
}
