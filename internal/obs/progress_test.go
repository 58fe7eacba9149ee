package obs_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

// productiveAt records the interaction count of every productive step.
type productiveAt struct{ at []uint64 }

func (r *productiveAt) Init(*population.Population) {}

func (r *productiveAt) OnStep(pop *population.Population, s sim.StepInfo) {
	if s.Changed {
		r.at = append(r.at, pop.Interactions())
	}
}

func (r *productiveAt) IgnoresNull() {}

// The agent engine reports at the first productive encounter at or past
// each multiple of Every, on either loop: a CountTarget that never holds
// keeps the run on the fused loop, sim.Never sends it to the general
// loop, and both report at the same counts.
func TestProgressReportsAtDeterministicCounts(t *testing.T) {
	const n, every, maxI = 20, 100, 1000
	p := core.MustNew(4)
	reportsAt := func(stop sim.StopCondition) (lines []string, at []uint64, productive []uint64) {
		var buf bytes.Buffer
		prog := &obs.Progress{W: &buf, Every: every, Cap: maxI, Label: "test"}
		rec := &productiveAt{}
		res, err := sim.Run(population.New(p, n), sched.NewRandom(1), stop, sim.Options{
			MaxInteractions: maxI,
			Hooks:           []sim.Hook{prog, rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Interactions != maxI {
			t.Fatalf("ran %d interactions", res.Interactions)
		}
		lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
		for _, l := range lines {
			var c uint64
			if _, err := fmt.Sscanf(l, "progress: test: %d interactions", &c); err != nil {
				t.Fatalf("line %q: %v", l, err)
			}
			at = append(at, c)
		}
		return lines, at, rec.at
	}
	never := sim.NewCountTarget(p.CanonMap(), make([]int, p.NumStates()))
	lines, fused, productive := reportsAt(never)
	_, general, _ := reportsAt(sim.Never{})
	var want []uint64
	for m := uint64(every); m <= maxI; m += every {
		for _, c := range productive {
			if c >= m {
				if len(want) == 0 || want[len(want)-1] != c {
					want = append(want, c)
				}
				break
			}
		}
	}
	if len(want) < 5 {
		t.Fatalf("only %d reporting points in %d interactions; the test shows little", len(want), maxI)
	}
	if !slices.Equal(fused, want) || !slices.Equal(general, want) {
		t.Fatalf("reports at %v on the fused loop and %v on the general loop, want %v", fused, general, want)
	}
	for _, w := range []string{"spread", "% of cap", "ETA"} {
		if !strings.Contains(lines[0], w) {
			t.Fatalf("first line %q missing %q", lines[0], w)
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
	// A jump of 2⁶² at Every 1 moves the next point past it at once.
	buf.Reset()
	prog = &obs.Progress{W: &buf, Every: 1}
	prog.MaybeReport(1<<62, 1<<20, spread)
	prog.MaybeReport(1<<62, 1<<20, spread) // next point is 2⁶² + 1
	prog.MaybeReport(1<<62+1, 1<<20, spread)
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("%d lines after a jump of 2^62 at Every 1, want 2:\n%s", got, buf.String())
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
