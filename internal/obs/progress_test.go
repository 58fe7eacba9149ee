package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestProgressReportsAtDeterministicCounts(t *testing.T) {
	p := core.MustNew(4)
	pop := population.New(p, 20)
	var buf bytes.Buffer
	prog := &obs.Progress{W: &buf, Every: 100, Cap: 1000, Label: "test"}
	res, err := sim.Run(pop, sched.NewRandom(1), sim.Never{}, sim.Options{
		MaxInteractions: 1000,
		Hooks:           []sim.Hook{prog},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactions != 1000 {
		t.Fatalf("ran %d interactions", res.Interactions)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// The agent engine advances one interaction at a time, so a report
	// fires at exactly 100, 200, ..., 1000.
	if len(lines) != 10 {
		t.Fatalf("%d progress lines, want 10:\n%s", len(lines), buf.String())
	}
	first := lines[0]
	for _, want := range []string{"progress:", "test:", "100 interactions", "spread", "% of cap"} {
		if !strings.Contains(first, want) {
			t.Fatalf("first line %q missing %q", first, want)
		}
	}
}

func TestProgressMaybeReportJumps(t *testing.T) {
	// Count-engine style: the interaction count advances in jumps; one
	// report per crossed reporting point, never more.
	var buf bytes.Buffer
	prog := &obs.Progress{W: &buf, Every: 1000}
	spread := func() int { return 2 }
	prog.MaybeReport(10, 5, spread) // below first point
	prog.MaybeReport(999, 200, spread)
	prog.MaybeReport(2500, 700, spread) // crosses 1000 and 2000: one report
	prog.MaybeReport(2600, 750, spread) // next point is 3000
	prog.MaybeReport(3001, 900, spread)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "2500 interactions") || !strings.Contains(lines[1], "3001 interactions") {
		t.Fatalf("unexpected report points:\n%s", buf.String())
	}
}

func TestProgressNoCapOmitsETA(t *testing.T) {
	var buf bytes.Buffer
	prog := &obs.Progress{W: &buf, Every: 10}
	prog.MaybeReport(10, 10, func() int { return 0 })
	out := buf.String()
	if strings.Contains(out, "cap") || strings.Contains(out, "ETA") {
		t.Fatalf("cap/ETA shown without a cap: %s", out)
	}
	if !strings.Contains(out, "productive 100.0%") {
		t.Fatalf("productive fraction wrong: %s", out)
	}
}
