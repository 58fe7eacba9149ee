package obs

import (
	"strconv"

	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Milestones observes the #gk milestones of a run, the instrumentation
// behind Figure 4 of the paper: NI_i, the total number of interactions
// applied when the i-th complete set of agents {g1..gk} is finished. That
// is exactly the moment #gk first reaches i, since rule 7 is the only
// rule producing gk and gk-agents never leave (Section 5.1: "once an
// agent enters state gk, the set of agents never goes back to initial").
//
// Each milestone goes to three consumers:
//
//   - Marks, whose element i−1 is NI_i;
//   - the registry: histograms phase/interactions_to_grouping (NI_i) and
//     phase/grouping_cost (NI'_i = NI_i − NI_(i−1)), and the gauge
//     phase/groupings_complete (the milestone count);
//   - under a non-nil parent span, one "phase/grouping" child covering
//     (NI_(i−1), NI_i]. Intervals are logical (interaction counts via
//     SetSeq), never wall clock, so the spans are a pure function of
//     (spec, seed).
//
// The agent engine drives it as a sim.Hook. The count engines call
// Observe from their stop predicate; the batched engine runs that
// predicate only at batch boundaries, so its marks are boundary-granular.
type Milestones struct {
	watch    protocol.State
	parent   *span.ActiveSpan
	absolute Histogram
	delta    Histogram
	complete Gauge
	marks    []uint64
}

// NewMilestones returns an observer of the count of watch (gk for the
// k-partition protocol) that feeds the phase metrics of r (Nop for none)
// and emits phase spans under parent (nil for none).
func NewMilestones(r *Registry, watch protocol.State, parent *span.ActiveSpan) *Milestones {
	return &Milestones{
		watch:    watch,
		parent:   parent,
		absolute: r.Histogram("phase/interactions_to_grouping"),
		delta:    r.Histogram("phase/grouping_cost"),
		complete: r.Gauge("phase/groupings_complete"),
	}
}

// Observe records one milestone at interactions for each unit the
// watched entry of counts has risen past its previous maximum.
func (m *Milestones) Observe(interactions uint64, counts []int) {
	for len(m.marks) < counts[m.watch] {
		var prev uint64
		if len(m.marks) > 0 {
			prev = m.marks[len(m.marks)-1]
		}
		m.marks = append(m.marks, interactions)
		m.absolute.Observe(interactions)
		m.delta.Observe(interactions - prev)
		m.complete.Set(int64(len(m.marks)))
		// Formatting the index only under a parent keeps an untraced
		// observer allocation-free past milestone 99.
		if m.parent != nil {
			m.parent.Child("phase/grouping").
				SetAttr("index", strconv.Itoa(len(m.marks))).
				SetSeq(prev, interactions).
				End()
		}
	}
}

// Init implements sim.Hook. It starts a new run: the marks restart, the
// registry's histograms keep accumulating, and the agents already in the
// watched state count as milestones at the current interaction count.
func (m *Milestones) Init(pop *population.Population) {
	m.marks = m.marks[:0]
	m.complete.Set(0)
	m.Observe(pop.Interactions(), pop.CountsView())
}

// OnStep implements sim.Hook.
func (m *Milestones) OnStep(pop *population.Population, _ sim.StepInfo) {
	m.Observe(pop.Interactions(), pop.CountsView())
}

// IgnoresNull marks OnStep as a no-op on null steps (see sim.Hook): a
// null step leaves the watched count as it was.
func (m *Milestones) IgnoresNull() {}

// Marks returns NI_i for every milestone so far. The slice is reused by
// the next Init.
func (m *Milestones) Marks() []uint64 { return m.marks }

// Deltas returns NI'_i = NI_i − NI_(i−1) for i = 1..len(marks), plus the
// remainder tail (total − NI_last) as the final element when total
// exceeds the last mark. This matches the stacked decomposition of
// Figure 4, whose top segment is the cost of placing the remaining n mod
// k agents.
func Deltas(marks []uint64, total uint64) []uint64 {
	out := make([]uint64, 0, len(marks)+1)
	prev := uint64(0)
	for _, m := range marks {
		out = append(out, m-prev)
		prev = m
	}
	if total > prev {
		out = append(out, total-prev)
	}
	return out
}

var _ sim.Hook = (*Milestones)(nil)
