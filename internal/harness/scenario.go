package harness

// This file is the scenario engine: the spec vocabulary (topology,
// fairness, churn) that generalizes a trial away from the paper's
// baseline assumptions — complete interaction graph, uniform-random
// (globally fair) scheduling, fixed population — and the runner that
// executes such trials on the agent engine.
//
// A scenario trial composes three orthogonal axes:
//
//   - Topology restricts interactions to a graph's edges
//     (topology.NewEdgeScheduler) and arms frozen-configuration
//     detection (topology.FrozenCondition), because restricted graphs
//     can trap the protocol short of uniformity (the star-graph freeze).
//   - Fairness swaps the uniform-random scheduler for the weak-fairness
//     adversary (sched.NewWeakAdversary), which satisfies weak fairness
//     yet can stall the protocol forever — the gap between weak and
//     global fairness, mechanized.
//   - Churn mutates the population mid-run (joins, graceful leaves,
//     crashes) on a fixed interaction-count schedule: the surviving
//     agents' states and the run's counters carry over exactly into a
//     new population.
//
// Scenario trials run ONLY on the agent engine: the count and batch
// engines identify agents by state alone, so they cannot express a
// graph (which pairs may meet depends on identity) or churn (which
// agent leaves matters). ValidateSpec enforces this, along with an
// explicit MaxInteractions cap — a scenario run may legitimately never
// converge, so an unbounded one is a spec error rather than a surprise
// four-billion-interaction stall.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TopologyKind enumerates the interaction-graph families a trial can
// request. The zero value is the complete graph — the paper's model —
// so a zero TopologySpec means "no restriction".
type TopologyKind uint8

// The supported interaction-graph families.
const (
	// TopologyComplete is the paper's model: any two agents can meet.
	TopologyComplete TopologyKind = iota
	// TopologyRing is the n-cycle.
	TopologyRing
	// TopologyStar is the star with agent 0 as hub — the documented
	// freeze case: the protocol can trap a non-uniform configuration.
	TopologyStar
	// TopologyGrid is the Rows×Cols grid (Rows·Cols must equal n).
	TopologyGrid
	// TopologyRegular is a random Degree-regular graph sampled from
	// GraphSeed (n·Degree even, Degree < n).
	TopologyRegular
)

// TopologySpec selects a trial's interaction graph. It is comparable
// (the SpecKey drift guard depends on TrialSpec comparability), and its
// zero value is the complete graph.
type TopologySpec struct {
	Kind TopologyKind
	// Rows, Cols shape a grid (TopologyGrid only).
	Rows, Cols int
	// Degree is the regular graph's degree (TopologyRegular only).
	Degree int
	// GraphSeed seeds the regular graph's sampling (TopologyRegular
	// only); it is part of the trial's identity because a different
	// sample is a different graph.
	GraphSeed uint64
}

// IsComplete reports whether the spec means the unrestricted model.
func (t TopologySpec) IsComplete() bool { return t.Kind == TopologyComplete }

// String renders the spec the way the -topology flags spell it.
func (t TopologySpec) String() string {
	switch t.Kind {
	case TopologyComplete:
		return "complete"
	case TopologyRing:
		return "ring"
	case TopologyStar:
		return "star"
	case TopologyGrid:
		return fmt.Sprintf("grid:%dx%d", t.Rows, t.Cols)
	case TopologyRegular:
		if t.GraphSeed != 0 {
			return fmt.Sprintf("regular:%d@%d", t.Degree, t.GraphSeed)
		}
		return fmt.Sprintf("regular:%d", t.Degree)
	}
	return fmt.Sprintf("topology(%d)", uint8(t.Kind))
}

// Build constructs the graph for a population of n agents, or nil for
// the complete topology (the unrestricted scheduler needs no graph).
func (t TopologySpec) Build(n int) (*topology.Graph, error) {
	switch t.Kind {
	case TopologyComplete:
		return nil, nil
	case TopologyRing:
		return topology.Ring(n)
	case TopologyStar:
		return topology.Star(n)
	case TopologyGrid:
		if t.Rows*t.Cols != n {
			return nil, fmt.Errorf("grid %dx%d has %d cells, population has %d agents",
				t.Rows, t.Cols, t.Rows*t.Cols, n)
		}
		return topology.Grid(t.Rows, t.Cols)
	case TopologyRegular:
		return topology.RandomRegular(n, t.Degree, t.GraphSeed)
	}
	return nil, fmt.Errorf("unknown topology kind %d", t.Kind)
}

// ParseTopology maps a -topology flag value to a TopologySpec. Accepted
// forms: "complete" (or ""), "ring", "star", "grid:RxC",
// "regular:D" and "regular:D@SEED". Errors wrap ErrInvalidSpec.
func ParseTopology(s string) (TopologySpec, error) {
	switch s {
	case "", "complete":
		return TopologySpec{}, nil
	case "ring":
		return TopologySpec{Kind: TopologyRing}, nil
	case "star":
		return TopologySpec{Kind: TopologyStar}, nil
	}
	if rest, ok := strings.CutPrefix(s, "grid:"); ok {
		r, c, ok := strings.Cut(rest, "x")
		if ok {
			rows, err1 := strconv.Atoi(r)
			cols, err2 := strconv.Atoi(c)
			if err1 == nil && err2 == nil && rows > 0 && cols > 0 {
				return TopologySpec{Kind: TopologyGrid, Rows: rows, Cols: cols}, nil
			}
		}
		return TopologySpec{}, fmt.Errorf("%w: bad grid topology %q (want grid:RxC)", ErrInvalidSpec, s)
	}
	if rest, ok := strings.CutPrefix(s, "regular:"); ok {
		dpart, spart, hasSeed := strings.Cut(rest, "@")
		d, err := strconv.Atoi(dpart)
		if err != nil || d <= 0 {
			return TopologySpec{}, fmt.Errorf("%w: bad regular topology %q (want regular:D or regular:D@SEED)", ErrInvalidSpec, s)
		}
		t := TopologySpec{Kind: TopologyRegular, Degree: d}
		if hasSeed {
			seed, err := strconv.ParseUint(spart, 10, 64)
			if err != nil {
				return TopologySpec{}, fmt.Errorf("%w: bad regular topology seed in %q", ErrInvalidSpec, s)
			}
			t.GraphSeed = seed
		}
		return t, nil
	}
	return TopologySpec{}, fmt.Errorf("%w: unknown topology %q (want complete, ring, star, grid:RxC or regular:D)", ErrInvalidSpec, s)
}

// Fairness selects the trial's scheduling regime. The zero value is the
// paper's uniform-random scheduler (globally fair with probability 1).
type Fairness uint8

// The supported fairness regimes.
const (
	// FairnessUniform is the uniform-random scheduler, the probabilistic
	// stand-in for global fairness the paper's Section 5 uses.
	FairnessUniform Fairness = iota
	// FairnessWeak is the weak-fairness adversary (sched.WeakAdversary):
	// every pair still interacts infinitely often, but the schedule is
	// chosen adversarially — the protocol is not guaranteed to converge,
	// and at some population sizes provably stalls forever.
	FairnessWeak
)

// String names the regime the way the -fairness flags spell it.
func (f Fairness) String() string {
	switch f {
	case FairnessUniform:
		return "uniform"
	case FairnessWeak:
		return "weak"
	}
	return fmt.Sprintf("fairness(%d)", uint8(f))
}

// ParseFairness maps a -fairness flag value to a Fairness. Errors wrap
// ErrInvalidSpec.
func ParseFairness(s string) (Fairness, error) {
	switch s {
	case "", "uniform":
		return FairnessUniform, nil
	case "weak":
		return FairnessWeak, nil
	}
	return FairnessUniform, fmt.Errorf("%w: unknown fairness %q (want uniform or weak)", ErrInvalidSpec, s)
}

// ChurnSpec schedules population changes at fixed interaction counts:
// Events batches, the first at interaction At and subsequent ones every
// Interval interactions, each adding Joins fresh agents (in the initial
// state) and removing Leaves agents. The zero value means no churn.
type ChurnSpec struct {
	// At is the interaction count of the first batch (must be > 0 when
	// churn is enabled — the initial configuration is not a batch).
	At uint64
	// Interval separates consecutive batches (required when Events > 1).
	Interval uint64
	// Events is the number of batches (>= 1 when churn is enabled).
	Events int
	// Joins is the number of agents added per batch, in state initial.
	Joins int
	// Leaves is the number of agents removed per batch.
	Leaves int
	// Crash selects the departure model: false removes free agents first
	// (graceful departure — an agent that has not committed to a group
	// leaves no hole), true removes uniformly random agents, committed
	// or not (crash — the adversarial case the survival curves measure).
	Crash bool
}

// Enabled reports whether the spec schedules any population change.
func (c ChurnSpec) Enabled() bool { return c.Joins > 0 || c.Leaves > 0 }

// String renders the spec the way the -churn flags spell it.
func (c ChurnSpec) String() string {
	if !c.Enabled() {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "at=%d", c.At)
	if c.Events > 1 {
		fmt.Fprintf(&b, ",every=%d", c.Interval)
	}
	fmt.Fprintf(&b, ",events=%d,join=%d,leave=%d", c.Events, c.Joins, c.Leaves)
	if c.Crash {
		b.WriteString(",crash")
	}
	return b.String()
}

// ParseChurn maps a -churn flag value to a ChurnSpec. The format is a
// comma-separated key=value list: "at=N" (first batch), "every=N"
// (batch interval), "events=N" (batch count, default 1), "join=N",
// "leave=N", and the bare flag "crash". "" and "none" mean no churn.
// Errors wrap ErrInvalidSpec.
func ParseChurn(s string) (ChurnSpec, error) {
	if s == "" || s == "none" {
		return ChurnSpec{}, nil
	}
	c := ChurnSpec{Events: 1}
	for _, part := range strings.Split(s, ",") {
		if part == "crash" {
			c.Crash = true
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return ChurnSpec{}, fmt.Errorf("%w: bad churn field %q (want key=value)", ErrInvalidSpec, part)
		}
		u, err := strconv.ParseUint(val, 10, 63)
		if err != nil {
			return ChurnSpec{}, fmt.Errorf("%w: bad churn value %q: %v", ErrInvalidSpec, part, err)
		}
		switch key {
		case "at":
			c.At = u
		case "every":
			c.Interval = u
		case "events":
			c.Events = int(u)
		case "join":
			c.Joins = int(u)
		case "leave":
			c.Leaves = int(u)
		default:
			return ChurnSpec{}, fmt.Errorf("%w: unknown churn field %q", ErrInvalidSpec, key)
		}
	}
	return c, nil
}

// HasScenario reports whether the spec leaves the paper's baseline model
// (complete graph, uniform-random scheduling, fixed population) on any
// axis — exactly the trials runTrial routes through the scenario runner.
func (s TrialSpec) HasScenario() bool {
	return !s.Topology.IsComplete() || s.Fairness != FairnessUniform || s.Churn.Enabled()
}

// validateScenario checks the scenario axes of a spec; ValidateSpec
// calls it after the baseline fields pass. All failures wrap
// ErrInvalidSpec.
func validateScenario(spec TrialSpec) error {
	switch spec.Fairness {
	case FairnessUniform, FairnessWeak:
	default:
		return fmt.Errorf("%w: unknown fairness %d", ErrInvalidSpec, spec.Fairness)
	}
	switch spec.Topology.Kind {
	case TopologyComplete, TopologyRing, TopologyStar, TopologyGrid, TopologyRegular:
	default:
		return fmt.Errorf("%w: unknown topology kind %d", ErrInvalidSpec, spec.Topology.Kind)
	}
	c := spec.Churn
	if !c.Enabled() && (c.At != 0 || c.Interval != 0 || c.Events != 0 || c.Crash) {
		return fmt.Errorf("%w: churn schedule set without join or leave counts", ErrInvalidSpec)
	}
	if !spec.HasScenario() {
		return nil
	}
	if spec.Engine != EngineAgent {
		return fmt.Errorf("%w: scenario specs (topology %s, fairness %s, churn %s) need the agent engine, got %s — the count engines track states without identities, so graphs and churn are inexpressible there",
			ErrInvalidSpec, spec.Topology, spec.Fairness, spec.Churn, spec.Engine)
	}
	if spec.MaxInteractions == 0 {
		return fmt.Errorf("%w: scenario specs need an explicit MaxInteractions cap (scenario runs may legitimately never converge)", ErrInvalidSpec)
	}
	if c.Enabled() {
		if c.At == 0 {
			return fmt.Errorf("%w: churn needs at > 0 (the initial configuration is not a churn event)", ErrInvalidSpec)
		}
		if c.Events < 1 {
			return fmt.Errorf("%w: churn needs events >= 1, got %d", ErrInvalidSpec, c.Events)
		}
		if c.Events > 1 && c.Interval == 0 {
			return fmt.Errorf("%w: churn with %d events needs every > 0", ErrInvalidSpec, c.Events)
		}
		if c.Joins < 0 || c.Leaves < 0 {
			return fmt.Errorf("%w: negative churn counts", ErrInvalidSpec)
		}
		switch spec.Topology.Kind {
		case TopologyComplete, TopologyRing, TopologyStar:
		default:
			return fmt.Errorf("%w: churn composes only with complete, ring and star topologies (%s cannot be rebuilt at arbitrary sizes)",
				ErrInvalidSpec, spec.Topology)
		}
		if spec.Grouping {
			return fmt.Errorf("%w: grouping marks are undefined under churn (the target group count changes mid-run)", ErrInvalidSpec)
		}
	}
	// The target signature and the graph must exist at every size the
	// run passes through. The callers have checked the signature at the
	// initial size; churnErr covers every later one.
	if _, err := spec.Topology.Build(spec.N); err != nil {
		return fmt.Errorf("%w: topology %s at population %d: %v", ErrInvalidSpec, spec.Topology, spec.N, err)
	}
	return churnErr(spec.N, c)
}

// churnErr finds, in O(1), the first churn event a population of n
// agents cannot take. With g = Joins − Leaves, event e finds
// n + (e−1)·g agents and leaves n + e·g, so the first bad event is the
// first whose leaves reach the population it finds, or the first that
// leaves fewer than 3 agents, the smallest size with a stable signature
// (the complete graph, ring and star exist at every such size). A
// schedule whose population would overflow an int is rejected too.
func churnErr(n int, c ChurnSpec) error {
	if !c.Enabled() {
		return nil
	}
	g := c.Joins - c.Leaves
	leaveEv, smallEv := math.MaxInt, math.MaxInt
	switch {
	case c.Leaves >= n:
		leaveEv = 1
	case g < 0:
		leaveEv = 2 + (n-c.Leaves-1)/-g
	case g > 0 && c.Events > (math.MaxInt-n)/g:
		return fmt.Errorf("%w: %d churn events adding %d agents each overflow a population of %d",
			ErrInvalidSpec, c.Events, g, n)
	}
	if g < 0 {
		smallEv = (n-3)/-g + 1
	}
	switch {
	case min(leaveEv, smallEv) > c.Events:
		return nil
	case leaveEv <= smallEv:
		return fmt.Errorf("%w: churn event %d removes %d agents from a population of %d",
			ErrInvalidSpec, leaveEv, c.Leaves, n+(leaveEv-1)*g)
	}
	n += smallEv * g
	return fmt.Errorf("%w: after churn event %d the population of %d has no stable signature: %v",
		ErrInvalidSpec, smallEv, n, core.CheckPopulation(n))
}

// eventTime returns the interaction count At + i·Interval of churn event
// i (0-based), and false when the schedule has no event i or the event
// falls at or past maxI (a time past 2⁶⁴ included).
func (c ChurnSpec) eventTime(i int, maxI uint64) (uint64, bool) {
	if !c.Enabled() || i >= c.Events || c.At >= maxI ||
		c.Interval > 0 && uint64(i) > (maxI-c.At-1)/c.Interval {
		return 0, false
	}
	return c.At + uint64(i)*c.Interval, true
}

// Seed-stream tags of the scenario runner (see rng.StreamSeed): each
// consumer of randomness gets its own deterministic stream derived from
// the trial seed, so adding one never perturbs the others.
const (
	schedStreamTag = 0x5c4ed1 // per-segment scheduler seeds
	churnStreamTag = 0xc4a51  // crash-victim selection
)

// orientations lists both directions of every edge — the pair domain a
// graph induces for schedulers that work on ordered pairs.
func orientations(g *topology.Graph) [][2]int {
	pairs := make([][2]int, 0, 2*g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		u, v := g.Edge(i)
		pairs = append(pairs, [2]int{u, v}, [2]int{v, u})
	}
	return pairs
}

// scenarioScheduler builds the scheduler of one run segment. Each
// segment (the spans between churn events) gets a fresh scheduler —
// the graph is rebuilt at the segment's population size — under a
// deterministically derived seed, so the whole run remains a pure
// function of the spec.
func scenarioScheduler(spec TrialSpec, p *core.Protocol, n int, segment uint64) (sched.Scheduler, *topology.Graph, error) {
	g, err := spec.Topology.Build(n)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	seed := rng.StreamSeed(spec.Seed, schedStreamTag, segment)
	switch spec.Fairness {
	case FairnessWeak:
		opts := sched.WeakOptions{IsFree: p.IsFree}
		if g != nil {
			opts.Pairs = orientations(g)
		}
		return sched.NewWeakAdversary(seed, opts), g, nil
	default:
		if g != nil {
			return topology.NewEdgeScheduler(g, seed), g, nil
		}
		return sched.NewRandom(seed), g, nil
	}
}

// applyChurn mutates an agent state vector for one churn batch: leaves
// first (graceful mode removes free agents in index order before
// touching committed ones; crash mode removes uniformly random agents),
// then joins append fresh agents in the initial state.
func applyChurn(states []protocol.State, c ChurnSpec, p *core.Protocol, r *rng.Rand) []protocol.State {
	for del := 0; del < c.Leaves && len(states) > 0; del++ {
		victim := -1
		if c.Crash {
			victim = r.Intn(len(states))
		} else {
			for i, st := range states {
				if p.IsFree(st) {
					victim = i
					break
				}
			}
			if victim < 0 {
				victim = 0 // no free agent left; a committed one departs
			}
		}
		states = append(states[:victim], states[victim+1:]...)
	}
	for add := 0; add < c.Joins; add++ {
		states = append(states, p.Initial())
	}
	return states
}

// runScenarioTrial executes a scenario trial on the agent engine. The
// run is segmented at the churn schedule's interaction counts: each
// segment runs under a freshly built scheduler for the segment's
// population (graph rebuilt, seed derived per segment), and churn
// batches pass the surviving agents' states and the cumulative counters
// to a new population. The final segment stops on the stable signature
// of the FINAL population size — or, on a restricted graph, when the
// configuration group-freezes (topology.FrozenCondition with the
// protocol's parity orbits), which is how the star-graph freeze
// surfaces as Frozen=true rather than a burned interaction cap.
func runScenarioTrial(ctx context.Context, p *core.Protocol, spec TrialSpec, ropts RunOptions) (TrialResult, error) {
	maxI := spec.MaxInteractions
	espan := span.FromContext(ctx).Child("engine/scenario")
	if espan != nil {
		espan.SetAttr("topology", spec.Topology.String()).
			SetAttr("fairness", spec.Fairness.String()).
			SetAttr("churn", spec.Churn.String())
	}
	endSpan := func(pop *population.Population) {
		if espan != nil {
			espan.SetSeq(0, pop.Interactions()).
				SetAttr("interactions", fmt.Sprint(pop.Interactions())).
				SetAttr("productive", fmt.Sprint(pop.Productive()))
			espan.End()
		}
	}

	pop := population.New(p, spec.N)
	churnRNG := rng.New(rng.StreamSeed(spec.Seed, churnStreamTag, 0))
	var ms *obs.Milestones

	for segment := 0; ; segment++ {
		s, g, err := scenarioScheduler(spec, p, pop.N(), uint64(segment))
		if err != nil {
			endSpan(pop)
			return TrialResult{}, err
		}
		// Segment i ends at churn event i; once the run reaches no
		// further event, the segment is the final one.
		eventAt, more := spec.Churn.eventTime(segment, maxI)
		final := !more
		var stop sim.StopCondition = sim.Never{}
		opts := sim.Options{MaxInteractions: maxI, Ctx: ctx}
		if ropts.Progress > 0 {
			opts.Hooks = append(opts.Hooks, &obs.Progress{
				Every: ropts.Progress,
				Label: fmt.Sprintf("n=%d k=%d seed=%#x seg=%d", pop.N(), spec.K, spec.Seed, segment),
			})
		}
		if !final {
			// Pre-churn segments run to the event time regardless of the
			// configuration: churn strikes on the clock, converged or not.
			opts.MaxInteractions = eventAt
		} else {
			target, terr := p.TargetCounts(pop.N())
			if terr != nil {
				endSpan(pop)
				return TrialResult{}, fmt.Errorf("%w: %v", ErrInvalidSpec, terr)
			}
			ct := sim.NewCountTarget(p.CanonMap(), target)
			// Freeze detection terminates runs that can never reach the
			// target: always on restricted graphs (the star/ring freeze),
			// and on the complete graph too once churn has struck — a crash
			// that removes committed agents can leave a dead, permanently
			// non-uniform configuration (the protocol is not
			// self-stabilizing), which would otherwise burn the whole cap.
			fg := g
			if fg == nil && spec.Churn.Enabled() {
				cg, cerr := topology.Complete(pop.N())
				if cerr != nil {
					endSpan(pop)
					return TrialResult{}, cerr
				}
				fg = cg
			}
			if fg != nil {
				stop = sim.Any{ct, &topology.FrozenCondition{G: fg, Proto: p, Orbits: p.ParityOrbit}}
			} else {
				stop = ct
			}
			if ms = milestones(p, spec, nil); ms != nil {
				opts.Hooks = append(opts.Hooks, ms)
			}
		}
		segStart := pop.Interactions()
		res, err := sim.Run(pop, s, stop, opts)
		if espan != nil {
			espan.Child("segment").
				SetAttr("index", fmt.Sprint(segment)).
				SetAttr("n", fmt.Sprint(pop.N())).
				SetSeq(segStart, pop.Interactions()).
				End()
		}
		if err != nil {
			endSpan(pop)
			return TrialResult{}, err
		}
		if final {
			converged := p.IsStable(pop.CountsView())
			out := TrialResult{
				Spec:         spec,
				Interactions: res.Interactions,
				Productive:   res.Productive,
				Converged:    converged,
				Spread:       res.Spread(),
				Frozen:       res.Converged && !converged,
				FinalN:       pop.N(),
			}
			if spec.Grouping {
				out.Marks = ms.Marks()
			}
			endSpan(pop)
			return out, nil
		}
		// Churn batch: rewrite the agent roster into a new population and
		// carry the counters (and therefore the interaction clock) over.
		// validateScenario guarantees every size stays at least 3, and the
		// next loop iteration builds the next segment's scheduler.
		next := population.FromStates(p, applyChurn(pop.Snapshot(), spec.Churn, p, churnRNG))
		next.SetCounters(pop.Interactions(), pop.Productive())
		pop = next
	}
}
