package sim

import (
	"repro/internal/population"
	"repro/internal/protocol"
)

// GroupingCounter reproduces the instrumentation behind Figure 4 of the
// paper: NI_i, the total number of interactions applied when the i-th
// complete set of agents {g1..gk} is finished — which is exactly the moment
// #gk rises to i, since rule 7 is the only rule producing gk and gk-agents
// never leave (Section 5.1: "once an agent enters state gk, the set of
// agents never goes back to initial").
//
// Marks[i-1] holds NI_i. The per-grouping costs of the figure are the
// differences NI'_i = NI_i − NI_(i−1) (see Deltas).
type GroupingCounter struct {
	// Watch is the state whose count increments mark groupings (gk for
	// the k-partition protocol).
	Watch protocol.State
	// Marks receives pop.Interactions() at each increment of the watched
	// count past its previous maximum.
	Marks []uint64

	best int
}

// Init implements Hook.
func (g *GroupingCounter) Init(pop *population.Population) {
	g.Marks = g.Marks[:0]
	g.best = pop.Count(g.Watch)
	for i := 0; i < g.best; i++ {
		g.Marks = append(g.Marks, pop.Interactions())
	}
}

// OnStep implements Hook.
func (g *GroupingCounter) OnStep(pop *population.Population, s StepInfo) {
	if !s.Changed {
		return
	}
	if c := pop.Count(g.Watch); c > g.best {
		for i := g.best; i < c; i++ {
			g.Marks = append(g.Marks, pop.Interactions())
		}
		g.best = c
	}
}

// IgnoresNull marks OnStep as a no-op on null steps (see Hook).
func (g *GroupingCounter) IgnoresNull() {}

// Deltas returns NI'_i = NI_i − NI_(i−1) for i = 1..len(Marks), plus the
// remainder tail (total − NI_last) as the final element when total exceeds
// the last mark. This matches the stacked decomposition of Figure 4, whose
// top segment is the cost of placing the remaining n mod k agents.
func (g *GroupingCounter) Deltas(total uint64) []uint64 {
	out := make([]uint64, 0, len(g.Marks)+1)
	prev := uint64(0)
	for _, m := range g.Marks {
		out = append(out, m-prev)
		prev = m
	}
	if total > prev {
		out = append(out, total-prev)
	}
	return out
}

// MaxGroupCount tracks the running maximum of a state count; cheaper than
// GroupingCounter when only the final count matters.
type MaxGroupCount struct {
	Watch protocol.State
	Max   int
}

// Init implements Hook.
func (m *MaxGroupCount) Init(pop *population.Population) { m.Max = pop.Count(m.Watch) }

// OnStep implements Hook.
func (m *MaxGroupCount) OnStep(pop *population.Population, s StepInfo) {
	if s.Changed {
		if c := pop.Count(m.Watch); c > m.Max {
			m.Max = c
		}
	}
}

// IgnoresNull marks OnStep as a no-op on null steps (see Hook).
func (m *MaxGroupCount) IgnoresNull() {}

// SpreadRecorder samples the group-size spread (max−min) every Interval
// interactions; used by convergence-trajectory plots and tests asserting
// monotone-ish convergence behaviour.
type SpreadRecorder struct {
	Interval uint64
	Samples  []int
}

// Init implements Hook.
func (r *SpreadRecorder) Init(pop *population.Population) {
	r.Samples = r.Samples[:0]
	r.Samples = append(r.Samples, pop.Spread())
}

// OnStep implements Hook.
func (r *SpreadRecorder) OnStep(pop *population.Population, s StepInfo) {
	if r.Interval == 0 {
		return
	}
	if pop.Interactions()%r.Interval == 0 {
		r.Samples = append(r.Samples, pop.Spread())
	}
}

// StepFunc adapts a function to the Hook interface.
type StepFunc func(pop *population.Population, s StepInfo)

// Init implements Hook.
func (StepFunc) Init(*population.Population) {}

// OnStep implements Hook.
func (f StepFunc) OnStep(pop *population.Population, s StepInfo) { f(pop, s) }
