package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs/span"
)

// traceTrial runs one traced trial and returns its result and the
// exported spans.
func traceTrial(t *testing.T, spec TrialSpec) (TrialResult, []span.Span) {
	t.Helper()
	col := span.NewCollector(nil)
	tr := col.TraceForSpec(SpecKey(spec))
	root := tr.Root("request")
	ctx := span.NewContext(context.Background(), root)
	res, err := RunTrialCtx(ctx, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	return res, col.Export()
}

// identity strips the wall fields, which are edge-captured and vary run
// to run; everything else in a span is deterministic for a fixed spec.
func identity(spans []span.Span) []span.Span {
	out := append([]span.Span(nil), spans...)
	for i := range out {
		out[i].WallStartUS, out[i].WallDurUS = 0, 0
	}
	return out
}

func spansEqual(a, b []span.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Trace != y.Trace || x.ID != y.ID || x.Parent != y.Parent || x.Name != y.Name ||
			x.StartSeq != y.StartSeq || x.EndSeq != y.EndSeq || len(x.Attrs) != len(y.Attrs) {
			return false
		}
		for j := range x.Attrs {
			if x.Attrs[j] != y.Attrs[j] {
				return false
			}
		}
	}
	return true
}

// TestTrialSpanTreeDeterministic pins the acceptance property: two runs
// of the same spec export identical span trees — same trace ID, span
// IDs, structure, names, attrs, and logical intervals — on both engines.
func TestTrialSpanTreeDeterministic(t *testing.T) {
	for _, eng := range []Engine{EngineAgent, EngineCount} {
		spec := TrialSpec{N: 24, K: 4, Seed: 7, Engine: eng}
		_, spansA := traceTrial(t, spec)
		_, spansB := traceTrial(t, spec)
		a, b := identity(spansA), identity(spansB)
		if !spansEqual(a, b) {
			t.Errorf("engine %v: two runs of the same spec exported different trees:\n%v\n%v", eng, a, b)
		}
	}
}

// TestTrialSpanTreeShape checks the exported tree is complete and
// properly nested: request → trial → engine → one
// phase/grouping span per #gk milestone, with every child's logical
// interval inside its parent's and every child's wall interval inside
// its parent's (where both are stamped).
func TestTrialSpanTreeShape(t *testing.T) {
	for _, tc := range []struct {
		engine Engine
		eng    string
	}{
		{EngineAgent, "engine/agent"},
		{EngineCount, "engine/count"},
	} {
		spec := TrialSpec{N: 24, K: 4, Seed: 7, Engine: tc.engine}
		_, spans := traceTrial(t, spec)

		byID := make(map[string]span.Span)
		count := make(map[string]int)
		for _, s := range spans {
			byID[s.ID] = s
			count[s.Name]++
		}
		// n=24, k=4 converges to exactly 6 complete groupings.
		want := map[string]int{"request": 1, "trial": 1, tc.eng: 1, "phase/grouping": 6}
		for name, n := range want {
			if count[name] != n {
				t.Errorf("engine %v: %d %q spans, want %d (all: %v)", tc.engine, count[name], name, n, count)
			}
		}

		for _, s := range spans {
			if s.Parent == "" {
				if s.Name != "request" {
					t.Errorf("engine %v: root span is %q, want request", tc.engine, s.Name)
				}
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("engine %v: span %s/%s has missing parent %s", tc.engine, s.ID, s.Name, s.Parent)
				continue
			}
			if s.EndSeq > 0 && p.EndSeq > 0 {
				if s.StartSeq < p.StartSeq || s.EndSeq > p.EndSeq {
					t.Errorf("engine %v: %q seq [%d,%d] escapes parent %q [%d,%d]",
						tc.engine, s.Name, s.StartSeq, s.EndSeq, p.Name, p.StartSeq, p.EndSeq)
				}
			}
			if s.WallDurUS > 0 && p.WallDurUS > 0 {
				if s.WallStartUS < p.WallStartUS ||
					s.WallStartUS+s.WallDurUS > p.WallStartUS+p.WallDurUS {
					t.Errorf("engine %v: %q wall [%d,+%d] escapes parent %q [%d,+%d]",
						tc.engine, s.Name, s.WallStartUS, s.WallDurUS, p.Name, p.WallStartUS, p.WallDurUS)
				}
			}
		}

		// Phase spans partition the engine interval: contiguous, ordered,
		// ending at the engine span's end-of-convergence marks.
		var phases []span.Span
		for _, s := range spans {
			if s.Name == "phase/grouping" {
				phases = append(phases, s)
			}
		}
		var prev uint64
		for i, ph := range phases {
			if ph.StartSeq != prev {
				t.Errorf("engine %v: phase %d starts at %d, want %d (contiguous)", tc.engine, i+1, ph.StartSeq, prev)
			}
			if ph.EndSeq < ph.StartSeq {
				t.Errorf("engine %v: phase %d interval inverted", tc.engine, i+1)
			}
			prev = ph.EndSeq
		}
	}
}

// TestUntracedContextRunsClean pins the no-op path on every engine and
// the scenario runner: with Figure 4 marks on, a trial without a span in
// its context returns exactly the TrialResult of a traced one.
func TestUntracedContextRunsClean(t *testing.T) {
	for _, c := range []struct {
		path string
		spec TrialSpec
	}{
		{"agent", TrialSpec{N: 12, K: 3, Seed: 1, Grouping: true}},
		{"count", TrialSpec{N: 26, K: 4, Seed: 2, Grouping: true, Engine: EngineCount}},
		{"batch", TrialSpec{N: 120, K: 4, Seed: 3, Grouping: true, Engine: EngineBatch}},
		{"scenario", TrialSpec{N: 12, K: 3, Seed: 4, Grouping: true, MaxInteractions: 5_000_000,
			Topology: TopologySpec{Kind: TopologyRing}}},
	} {
		res, err := RunTrialCtx(context.Background(), c.spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || len(res.Marks) == 0 {
			t.Fatalf("%s: trial did not converge with marks: %+v", c.path, res)
		}
		tres, traced := traceTrial(t, c.spec)
		if !reflect.DeepEqual(res, tres) {
			t.Fatalf("%s: tracing perturbed the result:\n%+v\n%+v", c.path, res, tres)
		}
		if len(traced) == 0 {
			t.Fatalf("%s: traced run exported nothing", c.path)
		}
	}
}
