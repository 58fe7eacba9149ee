package obs

import (
	"strconv"

	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// PhaseSpans is a sim.Hook that emits one child span per #gk milestone
// of a run: span "phase/grouping" number i covers the interaction
// interval (NI_(i−1), NI_i] in which the i-th complete group was
// assembled — the same decomposition Figure 4 plots and PhaseTimer
// histograms, but attributed to one specific trial's trace. Intervals
// are logical (interaction counts via SetSeq), never wall clock, so the
// emitted spans are a pure function of (spec, seed).
type PhaseSpans struct {
	// Watch is the state whose count increments mark milestones (gk).
	Watch protocol.State
	// Parent is the span the phase spans nest under (the engine span).
	// A nil parent makes the hook a no-op.
	Parent *span.ActiveSpan

	gc       sim.GroupingCounter
	emitted  int
	prevMark uint64
}

// Init implements sim.Hook.
func (h *PhaseSpans) Init(pop *population.Population) {
	h.gc = sim.GroupingCounter{Watch: h.Watch}
	h.gc.Init(pop)
	h.emitted = 0
	h.prevMark = 0
	h.flush()
}

// OnStep implements sim.Hook.
func (h *PhaseSpans) OnStep(pop *population.Population, s sim.StepInfo) {
	h.gc.OnStep(pop, s)
	h.flush()
}

// IgnoresNull marks OnStep as a no-op on null steps (see sim.Hook): a
// null step records no milestone, so flush emits nothing.
func (h *PhaseSpans) IgnoresNull() {}

// flush emits a span for every milestone recorded since the last step.
func (h *PhaseSpans) flush() {
	for ; h.emitted < len(h.gc.Marks); h.emitted++ {
		mark := h.gc.Marks[h.emitted]
		h.Parent.Child("phase/grouping").
			SetAttr("index", strconv.Itoa(h.emitted+1)).
			SetSeq(h.prevMark, mark).
			End()
		h.prevMark = mark
	}
}

var _ sim.Hook = (*PhaseSpans)(nil)
