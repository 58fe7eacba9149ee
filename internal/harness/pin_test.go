package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pinnedSpecs covers every engine with and without Figure 4 marks, the
// scenario runner on a ring with marks, and three churn shapes (churn
// rejects marks): crash leaves, graceful leaves with joins, and joins on
// a star. Populations stay small: each #gk milestone of a traced trial
// is one phase span in the fixture.
var pinnedSpecs = []struct {
	name string
	spec TrialSpec
}{
	{"agent", TrialSpec{N: 26, K: 4, Seed: 7}},
	{"agent-grouping", TrialSpec{N: 26, K: 4, Seed: 7, Grouping: true}},
	{"count", TrialSpec{N: 26, K: 4, Seed: 7, Engine: EngineCount}},
	{"count-grouping", TrialSpec{N: 26, K: 4, Seed: 7, Engine: EngineCount, Grouping: true}},
	{"batch", TrialSpec{N: 240, K: 4, Seed: 3, Engine: EngineBatch}},
	{"batch-grouping", TrialSpec{N: 240, K: 4, Seed: 3, Engine: EngineBatch, Grouping: true}},
	{"batch-fixed", TrialSpec{N: 120, K: 3, Seed: 5, Engine: EngineBatch, BatchSize: 8}},
	{"batch-fixed-grouping", TrialSpec{N: 120, K: 3, Seed: 5, Engine: EngineBatch, BatchSize: 8, Grouping: true}},
	{"ring-grouping", TrialSpec{N: 12, K: 3, Seed: 4, MaxInteractions: 5_000_000,
		Topology: TopologySpec{Kind: TopologyRing}, Grouping: true}},
	{"churn", TrialSpec{N: 15, K: 3, Seed: 3, MaxInteractions: 5_000_000,
		Churn: ChurnSpec{At: 200, Interval: 200, Events: 2, Leaves: 1, Crash: true}}},
	{"churn-graceful-join", TrialSpec{N: 16, K: 3, Seed: 9, MaxInteractions: 5_000_000,
		Churn: ChurnSpec{At: 150, Interval: 150, Events: 3, Joins: 2, Leaves: 1}}},
	{"star-churn-join", TrialSpec{N: 12, K: 3, Seed: 6, MaxInteractions: 5_000_000,
		Topology: TopologySpec{Kind: TopologyStar},
		Churn:    ChurnSpec{At: 100, Events: 1, Joins: 2}}},
}

// pinnedPath holds, for each of pinnedSpecs, a "# name" line, the
// untraced and the traced TrialResult as JSON, and the traced span tree
// one span per line with its wall fields zeroed.
var pinnedPath = filepath.Join("testdata", "pinned_trials.txt")

// recordPinned runs pinnedSpecs and renders them in pinnedPath's format.
func recordPinned(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(prefix string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(prefix)
		b.Write(data)
		b.WriteByte('\n')
	}
	for _, c := range pinnedSpecs {
		if err := ValidateSpec(c.spec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		untraced, err := RunTrial(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		traced, spans := traceTrial(t, c.spec)
		fmt.Fprintf(&b, "# %s\n", c.name)
		line("untraced ", untraced)
		line("traced ", traced)
		for _, s := range identity(spans) {
			line("", s)
		}
	}
	return b.String()
}

// Every engine's TrialResult, Marks included, and every traced span
// tree stay byte-identical to the fixture: span IDs follow start order,
// so a phase span created at a different point of a run shows here.
func TestTrialsPinned(t *testing.T) {
	want, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	got := recordPinned(t)
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range wl {
		if i >= len(gl) || wl[i] != gl[i] {
			g := "(end of record)"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("%s line %d:\nwant %s\ngot  %s", pinnedPath, i+1, wl[i], g)
		}
	}
	if len(gl) > len(wl) {
		t.Fatalf("%s ends at line %d; the record goes on with\n%s", pinnedPath, len(wl), gl[len(wl)])
	}
}
