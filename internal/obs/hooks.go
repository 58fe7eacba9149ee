package obs

import (
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// RuleTally is a sim.Hook that maintains per-rule-family firing counters
// in a Registry, keyed by a protocol-supplied classifier (for the
// paper's protocol, core.ClassifyPair maps a state pair onto Algorithm
// 1's ten rule families).
//
// Counting discipline: a productive step increments exactly one family
// counter, so the family counters always sum to Result.Productive; a
// null encounter increments only sim/null_interactions. Both also feed
// sim/interactions, the paper's time metric.
type RuleTally struct {
	// Classify maps the pre-interaction state pair to a family index in
	// [0, len(families)); out-of-range results land in sim/unclassified.
	Classify func(a, b protocol.State) int

	families     []Counter
	total        Counter
	productive   Counter
	null         Counter
	unclassified Counter
}

// NewRuleTally wires family counters named "rule/<family>" plus the
// sim/interactions, sim/productive_interactions, sim/null_interactions
// and sim/unclassified counters into r.
func NewRuleTally(r *Registry, families []string, classify func(a, b protocol.State) int) *RuleTally {
	t := &RuleTally{
		Classify:     classify,
		total:        r.Counter("sim/interactions"),
		productive:   r.Counter("sim/productive_interactions"),
		null:         r.Counter("sim/null_interactions"),
		unclassified: r.Counter("sim/unclassified"),
	}
	for _, f := range families {
		t.families = append(t.families, r.Counter("rule/"+f))
	}
	return t
}

// Init implements sim.Hook.
func (t *RuleTally) Init(*population.Population) {}

// OnStep implements sim.Hook.
func (t *RuleTally) OnStep(pop *population.Population, s sim.StepInfo) {
	t.total.Inc()
	if !s.Changed {
		t.null.Inc()
		return
	}
	t.productive.Inc()
	if i := t.Classify(s.Before.P, s.Before.Q); i >= 0 && i < len(t.families) {
		t.families[i].Inc()
	} else {
		t.unclassified.Inc()
	}
}

// PhaseTimer is a sim.Hook that records interactions-to-milestone: each
// increment of the watched state count (#gk for the k-partition
// protocol) marks the completion of one grouping, exactly the NI_i
// instrumentation of Figure 4, reusing sim.GroupingCounter's
// past-maximum logic. The timer feeds two histograms:
//
//	phase/interactions_to_grouping — absolute NI_i per milestone
//	phase/grouping_cost            — per-grouping deltas NI'_i
//
// and a gauge phase/groupings_complete with the milestone count.
type PhaseTimer struct {
	// Watch is the state whose count increments mark milestones.
	Watch protocol.State

	gc       sim.GroupingCounter
	absolute Histogram
	delta    Histogram
	complete Gauge
	recorded int
	prevMark uint64
}

// NewPhaseTimer wires the phase histograms and gauge into r.
func NewPhaseTimer(r *Registry, watch protocol.State) *PhaseTimer {
	return &PhaseTimer{
		Watch:    watch,
		absolute: r.Histogram("phase/interactions_to_grouping"),
		delta:    r.Histogram("phase/grouping_cost"),
		complete: r.Gauge("phase/groupings_complete"),
	}
}

// Init implements sim.Hook.
func (t *PhaseTimer) Init(pop *population.Population) {
	t.gc = sim.GroupingCounter{Watch: t.Watch}
	t.gc.Init(pop)
	t.recorded = 0
	t.prevMark = 0
	t.record()
}

// OnStep implements sim.Hook.
func (t *PhaseTimer) OnStep(pop *population.Population, s sim.StepInfo) {
	t.gc.OnStep(pop, s)
	t.record()
}

// IgnoresNull marks OnStep as a no-op on null steps (see sim.Hook): a
// null step records no mark, and record then re-sets the gauge to the
// value it holds.
func (t *PhaseTimer) IgnoresNull() {}

// record flushes any new grouping marks into the histograms.
func (t *PhaseTimer) record() {
	for ; t.recorded < len(t.gc.Marks); t.recorded++ {
		mark := t.gc.Marks[t.recorded]
		t.absolute.Observe(mark)
		t.delta.Observe(mark - t.prevMark)
		t.prevMark = mark
	}
	t.complete.Set(int64(t.recorded))
}

// Marks returns the absolute interaction counts at each milestone (NI_i),
// mirroring sim.GroupingCounter.Marks.
func (t *PhaseTimer) Marks() []uint64 { return t.gc.Marks }

var (
	_ sim.Hook = (*RuleTally)(nil)
	_ sim.Hook = (*PhaseTimer)(nil)
)
