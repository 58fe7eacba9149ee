package main

// Replays re-run a trial the harness has already run, through the
// engines' public step functions, with timers around each layer. The
// harness result for the same spec is the reference: a replay that ends
// anywhere else describes a different trajectory, so its layer numbers
// would be wrong, and the replay guard fails the run.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/countsim"
	"repro/internal/harness"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/sim"
)

// layers accumulates per-layer work and time over every replay of a run.
type layers struct {
	// Agent engine.
	draws, interacts, stopSteps         uint64
	drawNanos, interactNanos, stopNanos float64
	agentInteractions, agentProductive  uint64
	simSteps, simInteractions           uint64
	simNanos                            float64
	batches, fallbackSteps, clamped     uint64
	aggregateNanos, fallbackNanos       float64
	checks                              uint64
	checkNanos                          float64
	audits                              uint64
	auditNanos                          float64
	engineNanos                         float64 // every timed engine call
	// clock is the cost of one time.Now call, which per-call timers add
	// to what they measure; the batch replay subtracts it.
	clock float64
}

// clockNanos estimates the cost of one time.Now call as the best of a
// few timed runs of back-to-back calls.
func clockNanos() float64 {
	const calls = 1000
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_ = time.Now()
		}
		if d := float64(time.Since(t0)) / calls; d < best {
			best = d
		}
	}
	return best
}

// values turns the accumulated work into the per-layer metrics.
func (l *layers) values() map[string]float64 {
	return map[string]float64{
		"sched.ns_per_draw":                     ratio(l.drawNanos, float64(l.draws)),
		"population.ns_per_interact":            ratio(l.interactNanos, float64(l.interacts)),
		"sim.stop_ns_per_step":                  ratio(l.stopNanos, float64(l.stopSteps)),
		"sim.productive_share":                  ratio(float64(l.agentProductive), float64(l.agentInteractions)),
		"countsim.sim.ns_per_step":              ratio(l.simNanos, float64(l.simSteps)),
		"countsim.sim.interactions_per_step":    ratio(float64(l.simInteractions), float64(l.simSteps)),
		"countsim.batch.fallback_share":         ratio(float64(l.fallbackSteps), float64(l.batches+l.fallbackSteps)),
		"countsim.batch.fallback_ns_per_step":   ratio(l.fallbackNanos, float64(l.fallbackSteps)),
		"countsim.batch.aggregate_ns_per_batch": ratio(l.aggregateNanos, float64(l.batches)),
		"countsim.batch.clamped_per_batch":      ratio(float64(l.clamped), float64(l.batches)),
		"countsim.batch.audit_ns_per_call":      ratio(l.auditNanos, float64(l.audits)),
		"core.check_ns_per_call":                ratio(l.checkNanos, float64(l.checks)),
		"core.check_share":                      ratio(l.checkNanos, l.aggregateNanos+l.fallbackNanos),
	}
}

// replay dispatches on the spec's engine.
func replay(spec harness.TrialSpec, want harness.TrialResult, l *layers) error {
	p := harness.Proto(spec.K)
	target, err := p.TargetCounts(spec.N)
	if err != nil {
		return err
	}
	switch spec.Engine {
	case harness.EngineAgent:
		return replayAgent(p, target, spec, want, l)
	case harness.EngineCount:
		return replayCount(p, target, spec, want, l)
	case harness.EngineBatch:
		return replayBatch(p, target, spec, want, l)
	}
	return fmt.Errorf("replay: unknown engine %s", spec.Engine)
}

// guard compares a replay's end state with the harness result. Both
// workloads have k | n, so the stable target leaves no free agent and
// fixes the whole count vector, not only its canonical form.
func guard(p *core.Protocol, target []int, spec harness.TrialSpec, want harness.TrialResult, interactions, productive uint64, counts []int) error {
	if interactions != want.Interactions || productive != want.Productive {
		return fmt.Errorf("replay guard: %s seed %#x ended at %d interactions (%d productive), harness at %d (%d)",
			spec.Engine, spec.Seed, interactions, productive, want.Interactions, want.Productive)
	}
	got := make([]int, len(target))
	for s, c := range counts {
		got[p.CanonMap()[s]] += c
	}
	for i := range got {
		if got[i] != target[i] {
			return fmt.Errorf("replay guard: %s seed %#x final counts %v, want canonical %v", spec.Engine, spec.Seed, counts, target)
		}
	}
	return nil
}

// agentBlock is how many scheduler draws the agent replay times at once.
const agentBlock = 1024

// replayAgent times sim.Run on the spec, the agent engine without the
// harness around it, then replays sim.Run's loop in blocks to split that
// time by layer: draw a block of pairs (Random.Next reads only N, so
// drawing ahead leaves the trajectory unchanged), apply them with
// Interact, then feed the steps to the stop condition. When the condition
// fires inside a block, the population is restored from its copy at the
// block start and only the steps up to the firing one are applied again.
// The split loops run slower than sim.Run's fused one, so the layer times
// add up to more than sim.Run's.
func replayAgent(p *core.Protocol, target []int, spec harness.TrialSpec, want harness.TrialResult, l *layers) error {
	maxI := spec.MaxInteractions
	if maxI == 0 {
		maxI = sim.DefaultMaxInteractions
	}
	t0 := time.Now()
	ref, err := sim.Run(population.New(p, spec.N), sched.NewRandom(spec.Seed), sim.NewCountTarget(p.CanonMap(), target), sim.Options{MaxInteractions: maxI})
	l.engineNanos += float64(time.Since(t0))
	if err != nil {
		return err
	}
	if ref.Converged != want.Converged || ref.Spread() != want.Spread {
		return fmt.Errorf("replay guard: sim.Run on seed %#x converged=%v spread %d, harness converged=%v spread %d",
			spec.Seed, ref.Converged, ref.Spread(), want.Converged, want.Spread)
	}
	if err := guard(p, target, spec, want, ref.Interactions, ref.Productive, ref.FinalCounts); err != nil {
		return err
	}

	pop := population.New(p, spec.N)
	sch := sched.NewRandom(spec.Seed)
	stop := sim.NewCountTarget(p.CanonMap(), target)
	stop.Init(pop)
	pairs := make([][2]int, agentBlock)
	steps := make([]sim.StepInfo, agentBlock)
	for pop.Interactions() < maxI {
		t0 := time.Now()
		for i := range pairs {
			pairs[i][0], pairs[i][1] = sch.Next(pop)
		}
		t1 := time.Now()
		start := pop.Clone()
		t2 := time.Now()
		for i, pr := range pairs {
			before := protocol.Pair{P: pop.State(pr[0]), Q: pop.State(pr[1])}
			changed := pop.Interact(pr[0], pr[1])
			steps[i] = sim.StepInfo{
				I: pr[0], J: pr[1],
				Before:  before,
				After:   protocol.Pair{P: pop.State(pr[0]), Q: pop.State(pr[1])},
				Changed: changed,
			}
		}
		t3 := time.Now()
		fired := -1
		for i := range steps {
			if stop.Step(pop, steps[i]) {
				fired = i
				break
			}
		}
		t4 := time.Now()
		l.drawNanos += float64(t1.Sub(t0))
		l.interactNanos += float64(t3.Sub(t2))
		l.stopNanos += float64(t4.Sub(t3))
		l.draws += agentBlock
		l.interacts += agentBlock
		if fired < 0 {
			l.stopSteps += agentBlock
			continue
		}
		l.stopSteps += uint64(fired + 1)
		pop = start
		for _, pr := range pairs[:fired+1] {
			pop.Interact(pr[0], pr[1])
		}
		break
	}
	l.agentInteractions += pop.Interactions()
	l.agentProductive += pop.Productive()
	if pop.Interactions() != ref.Interactions || pop.Productive() != ref.Productive || !slices.Equal(pop.CountsView(), ref.FinalCounts) {
		return fmt.Errorf("replay guard: block loop on seed %#x ended at %d interactions (%d productive) %v, sim.Run at %d (%d) %v",
			spec.Seed, pop.Interactions(), pop.Productive(), pop.CountsView(), ref.Interactions, ref.Productive, ref.FinalCounts)
	}
	return nil
}

// countBlock is how many Sim.Step calls the count replay times at once.
const countBlock = 256

// replayCount steps countsim.Sim up to the harness result's interaction
// count. The harness's stop predicate only reads the counts, so stepping
// without it walks the same trajectory.
func replayCount(p *core.Protocol, target []int, spec harness.TrialSpec, want harness.TrialResult, l *layers) error {
	s, err := countsim.New(p, spec.N, spec.Seed)
	if err != nil {
		return err
	}
	for s.Interactions() < want.Interactions {
		t0 := time.Now()
		n := 0
		for ; n < countBlock && s.Interactions() < want.Interactions; n++ {
			if _, _, err := s.Step(); err != nil {
				return fmt.Errorf("replay %s seed %#x: %w", spec.Engine, spec.Seed, err)
			}
		}
		d := float64(time.Since(t0))
		l.simNanos += d
		l.engineNanos += d
		l.simSteps += uint64(n)
	}
	l.simInteractions += s.Interactions()
	return guard(p, target, spec, want, s.Interactions(), s.Productive(), s.CountsView())
}

// auditEvery samples the fallback steps at which the audit replica runs.
const auditEvery = 64

// auditReps is how many times one sampled audit replica is repeated, so a
// sub-microsecond loop is long enough to time.
const auditReps = 16

// replayBatch steps countsim.Batch up to the harness result's interaction
// count, with a timing wrapper installed as BatchOptions.Check. Each Step
// call is timed alone and filed as a fallback step or an aggregate batch
// by which of SeqSteps and Batches it advanced; the timers' own cost is
// subtracted.
func replayBatch(p *core.Protocol, target []int, spec harness.TrialSpec, want harness.TrialResult, l *layers) error {
	check := func(counts []int) error {
		t0 := time.Now()
		err := p.CheckInvariant(counts)
		l.checkNanos += float64(time.Since(t0)) - l.clock
		l.checks++
		return err
	}
	b, err := countsim.NewBatch(p, spec.N, spec.Seed, countsim.BatchOptions{Check: check})
	if err != nil {
		return err
	}
	audit := newAuditReplica(p)
	for b.Interactions() < want.Interactions {
		seq, checks := b.SeqSteps(), l.checks
		t0 := time.Now()
		err := b.Step()
		// The step's timer and the two of each Check call inside it.
		d := float64(time.Since(t0)) - l.clock*float64(1+2*(l.checks-checks))
		if errors.Is(err, countsim.ErrDead) {
			break
		}
		if err != nil {
			return fmt.Errorf("replay %s seed %#x: %w", spec.Engine, spec.Seed, err)
		}
		l.engineNanos += d
		if b.SeqSteps() == seq {
			l.aggregateNanos += d
			continue
		}
		l.fallbackNanos += d
		if b.SeqSteps()%auditEvery == 0 {
			if err := audit.time(b, l); err != nil {
				return err
			}
		}
	}
	l.batches += b.Batches()
	l.fallbackSteps += b.SeqSteps()
	l.clamped += b.Clamped()
	return guard(p, target, spec, want, b.Interactions(), b.Productive(), b.CountsView())
}

// auditReplica repeats, outside the engine, the O(S²) null-weight audit
// the batch engine runs at every boundary: the same loop over the same
// null mask, rebuilt from the protocol's public transition function. Its
// result must equal the engine's incremental NullWeight, which shows the
// replica does the engine's work.
type auditReplica struct {
	S    int
	null []bool
}

func newAuditReplica(p protocol.Protocol) auditReplica {
	S := p.NumStates()
	a := auditReplica{S: S, null: make([]bool, S*S)}
	for x := 0; x < S; x++ {
		for y := 0; y < S; y++ {
			out, _ := p.Delta(protocol.State(x), protocol.State(y))
			a.null[x*S+y] = int(out.P) == x && int(out.Q) == y
		}
	}
	return a
}

func (a auditReplica) weight(counts []int) int64 {
	var w int64
	for x := 0; x < a.S; x++ {
		cx := int64(counts[x])
		if cx == 0 {
			continue
		}
		for y := 0; y < a.S; y++ {
			if !a.null[x*a.S+y] {
				continue
			}
			cy := int64(counts[y])
			if y == x {
				cy--
			}
			if cy > 0 {
				w += cx * cy
			}
		}
	}
	return w
}

func (a auditReplica) time(b *countsim.Batch, l *layers) error {
	counts := b.CountsView()
	var w int64
	t0 := time.Now()
	for r := 0; r < auditReps; r++ {
		w = a.weight(counts)
	}
	l.auditNanos += float64(time.Since(t0))
	l.audits += auditReps
	if w != b.NullWeight() {
		return fmt.Errorf("audit replica: null weight %d, engine %d", w, b.NullWeight())
	}
	return nil
}
