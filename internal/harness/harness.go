// Package harness runs the paper's experiments: it fans simulation trials
// out over a worker pool, aggregates them into per-point statistics, runs
// a figure's grid of (n, k) cells as one point per cell (RunGridCtx), and
// renders points as the tables and charts of Section 5 (and of the
// ablations DESIGN.md adds). Which cells a figure has is decided by
// `kpart experiments`, which draws the figures.
//
// Seeding discipline: every trial's generator is derived as
// StreamSeed(rootSeed, pointIndex, trialIndex), so any single cell of any
// figure can be reproduced in isolation, and results are independent of
// worker count and scheduling order.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/countsim"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Engine selects the simulation backend for a trial.
type Engine uint8

// The available engines.
const (
	// EngineAgent is the agent-level engine (internal/sim): every
	// scheduled encounter is walked explicitly. The default.
	EngineAgent Engine = iota
	// EngineCount is the count-based engine (internal/countsim): null
	// runs are skipped geometrically. Identical output distribution,
	// much faster on null-dominated workloads (large n, large k).
	EngineCount
	// EngineBatch is the batched count engine (countsim.Batch): whole
	// windows of interactions are drawn and applied per O(S²) batch,
	// with invariants re-checked only at batch boundaries and automatic
	// sequential fallback near stability. BatchSize selects the mode:
	// 0 is the adaptive aggregate mode (approximate within batches,
	// exact in every invariant — the differential tests in
	// internal/countsim pin down the contract), a positive size is the
	// exact fixed-size matching mode.
	EngineBatch
)

// TrialSpec describes one simulation trial of the k-partition protocol.
type TrialSpec struct {
	N, K int
	Seed uint64
	// MaxInteractions caps the run (0 = engine default).
	MaxInteractions uint64
	// Grouping requests per-grouping interaction marks (Figure 4).
	Grouping bool
	// Engine selects the backend (default EngineAgent).
	Engine Engine
	// BatchSize, meaningful only for EngineBatch, selects fixed-size
	// matching mode with this many disjoint pairs per batch (2·BatchSize
	// ≤ N required); 0 selects adaptive aggregate mode. ValidateSpec
	// rejects a non-zero BatchSize on any other engine.
	BatchSize uint64
	// Topology restricts interactions to a graph (zero value: the
	// paper's complete graph). Non-complete topologies require
	// EngineAgent and an explicit MaxInteractions cap (scenario runs can
	// freeze short of uniformity; see TrialResult.Frozen).
	Topology TopologySpec
	// Fairness selects the scheduling regime (zero value: the paper's
	// uniform-random scheduler). FairnessWeak requires EngineAgent and
	// an explicit MaxInteractions cap.
	Fairness Fairness
	// Churn schedules mid-run population changes (zero value: none).
	// Requires EngineAgent, an explicit MaxInteractions cap, and a
	// topology that can be rebuilt at any size (complete, ring, star).
	Churn ChurnSpec
}

// TrialResult is the outcome of one trial.
type TrialResult struct {
	Spec         TrialSpec
	Interactions uint64
	Productive   uint64
	Converged    bool
	Spread       int
	// Marks holds NI_i (total interactions at the i-th grouping) when
	// Spec.Grouping was set.
	Marks []uint64
	// Frozen reports that a restricted-topology run stopped because the
	// configuration group-froze (no reachable interaction can change any
	// agent's group again) WITHOUT reaching the uniform target — the
	// star-graph failure mode, surfaced as data rather than a timeout.
	Frozen bool `json:",omitempty"`
	// FinalN is the population size at the end of a scenario trial, N
	// unless churn changed it; 0 on a scenario-free trial.
	FinalN int `json:",omitempty"`
}

// protoCache shares immutable protocol tables across trials; building a
// table is O(k²) but there is no reason to do it 100 times per point.
type protoCache struct {
	mu sync.Mutex
	m  map[int]*core.Protocol // guarded by mu
}

var cache = protoCache{m: make(map[int]*core.Protocol)}

// Proto returns the shared uniform k-partition protocol instance for k.
func Proto(k int) *core.Protocol {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if p, ok := cache.m[k]; ok {
		return p
	}
	p := core.MustNew(k)
	cache.m[k] = p
	return p
}

// RunOptions is the execution policy of a trial or batch: deadline,
// journaling, progress. It deliberately lives OUTSIDE TrialSpec — the
// spec is a trial's reproducible identity (it is what the sweep journal
// hashes), while RunOptions only shapes how a trial is run (its deadline,
// its journal, its progress reports), never what it returns. The zero
// value means: no deadline, no journal.
type RunOptions struct {
	// TrialTimeout is the per-trial wall deadline; a trial exceeding it
	// fails with context.DeadlineExceeded. 0 means no wall deadline.
	TrialTimeout time.Duration
	// Journal, when non-nil, is consulted before running each trial of a
	// batch (completed trials are returned from the journal instead of
	// re-run) and appended to after each success — the sweep
	// checkpoint/resume mechanism.
	Journal *Journal
	// Progress, when non-zero, emits a progress report every Progress
	// interactions (count engine: at the first productive step past each
	// multiple). Used by the scale binary for hours-long single trials.
	Progress uint64
}

// ErrInvalidSpec marks trial failures that no run can fix (bad n/k,
// malformed spec); RunTrialCtx fails such trials before running them.
var ErrInvalidSpec = errors.New("harness: invalid trial spec")

// RunTrial executes one trial to stability (or the interaction cap),
// recording per-trial metrics when a registry is installed (SetMetrics).
func RunTrial(spec TrialSpec) (TrialResult, error) {
	return RunTrialCtx(context.Background(), spec, RunOptions{})
}

// RunTrialCtx executes one trial under ctx with the given policy. The
// trial runs once, under its spec's seed and with opts.TrialTimeout of
// wall clock, and either returns its result or fails with a typed error:
// ErrInvalidSpec, context.DeadlineExceeded for a missed deadline, or the
// batch context's error. Per-trial metrics (including the timeout and
// cancellation counters) are recorded when a registry is installed.
//
// When ctx carries a span (span.FromContext), the run is traced: a
// "trial" span holding the engine span and its per-#gk phase spans. The
// span tree's identity is deterministic for a fixed spec; only the wall
// stamps, taken here at the harness edge, vary run to run.
func RunTrialCtx(ctx context.Context, spec TrialSpec, opts RunOptions) (res TrialResult, err error) {
	reg := Metrics()
	tspan := span.FromContext(ctx).Child("trial")
	tspan.SetAttr("n", fmt.Sprint(spec.N)).
		SetAttr("k", fmt.Sprint(spec.K)).
		SetAttr("seed", fmt.Sprintf("%#x", spec.Seed)).
		SetAttr("engine", spec.Engine.String())
	if spec.HasScenario() {
		tspan.SetAttr("topology", spec.Topology.String()).
			SetAttr("fairness", spec.Fairness.String())
		if spec.Churn.Enabled() {
			tspan.SetAttr("churn", spec.Churn.String())
		}
	}
	tsw := span.StartWall()
	// ran stays false if runTrial panics, so the span still ends as an
	// error while the panic goes on.
	ran := false
	defer func() {
		if err != nil || !ran {
			tspan.SetAttr("outcome", "error")
		} else {
			tspan.SetAttr("outcome", "ok").
				SetAttr("converged", fmt.Sprint(res.Converged))
			tspan.SetSeq(0, res.Interactions)
		}
		tsw.StopInto(tspan)
		tspan.End()
	}()
	if ctx.Err() != nil {
		reg.Counter("harness/canceled").Inc()
		return TrialResult{}, ctx.Err()
	}
	tctx := ctx
	if opts.TrialTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, opts.TrialTimeout)
		defer cancel()
	}
	start := time.Now()
	res, err = runTrial(span.NewContext(tctx, tspan), spec, opts)
	ran = true
	observeTrial(reg, res, err, time.Since(start))
	switch {
	case err == nil:
		return res, nil
	case ctx.Err() != nil:
		// The batch (not this trial's deadline) was cancelled.
		reg.Counter("harness/canceled").Inc()
		return TrialResult{}, ctx.Err()
	case errors.Is(err, context.DeadlineExceeded):
		reg.Counter("harness/timeouts").Inc()
		return TrialResult{}, fmt.Errorf("harness: n=%d k=%d seed=%#x: exceeded trial timeout %v: %w",
			spec.N, spec.K, spec.Seed, opts.TrialTimeout, err)
	}
	return TrialResult{}, err
}

func runTrial(ctx context.Context, spec TrialSpec, ropts RunOptions) (TrialResult, error) {
	// Proto panics for a k outside the range ValidatePartition admits.
	if spec.K < 2 || spec.K > MaxK {
		return TrialResult{}, fmt.Errorf("%w: k=%d outside [2, %d]", ErrInvalidSpec, spec.K, MaxK)
	}
	p := Proto(spec.K)
	target, err := p.TargetCounts(spec.N)
	if err != nil {
		return TrialResult{}, fmt.Errorf("%w: n=%d k=%d: %v", ErrInvalidSpec, spec.N, spec.K, err)
	}
	// The scenario axes are validated on the execution path too, not just
	// at admission: a caller that skips ValidateSpec still gets
	// ErrInvalidSpec (never a bogus run) for an inconsistent scenario
	// spec.
	if err := validateScenario(spec); err != nil {
		return TrialResult{}, err
	}
	if spec.HasScenario() {
		// Restricted topology, adversarial fairness, or churn: the
		// scenario runner (scenario.go). validateScenario rejects the
		// count engines for scenarios, so this dispatch happens first.
		return runScenarioTrial(ctx, p, spec, ropts)
	}
	if spec.Engine == EngineCount || spec.Engine == EngineBatch {
		return runCountTrial(ctx, p, spec, ropts)
	}
	pop := population.New(p, spec.N)
	opts := sim.Options{MaxInteractions: spec.MaxInteractions, Ctx: ctx}
	// A traced run gets an engine span with per-#gk phase children. The
	// spans are observational only — they never feed back into the result,
	// so a traced and an untraced run of the same spec stay byte-identical.
	espan := span.FromContext(ctx).Child("engine/agent")
	ms := milestones(p, spec, espan)
	if ms != nil {
		opts.Hooks = []sim.Hook{ms}
	}
	if ropts.Progress > 0 {
		opts.Hooks = append(opts.Hooks, &obs.Progress{
			Every: ropts.Progress,
			Label: fmt.Sprintf("n=%d k=%d seed=%#x", spec.N, spec.K, spec.Seed),
		})
	}
	res, err := sim.Run(pop, sched.NewRandom(spec.Seed), sim.NewCountTarget(p.CanonMap(), target), opts)
	if espan != nil {
		espan.SetSeq(0, res.Interactions).
			SetAttr("interactions", fmt.Sprint(res.Interactions)).
			SetAttr("productive", fmt.Sprint(res.Productive))
		espan.End()
	}
	if err != nil {
		return TrialResult{}, err
	}
	out := TrialResult{
		Spec:         spec,
		Interactions: res.Interactions,
		Productive:   res.Productive,
		Converged:    res.Converged,
		Spread:       res.Spread(),
	}
	if spec.Grouping {
		out.Marks = ms.Marks()
	}
	return out, nil
}

// milestones returns the Figure 4 observer of a trial that wants marks
// (spec.Grouping) or phase spans (a non-nil engine span), and nil for a
// trial that wants neither. Its metrics go to the no-op registry.
func milestones(p *core.Protocol, spec TrialSpec, espan *span.ActiveSpan) *obs.Milestones {
	if !spec.Grouping && espan == nil {
		return nil
	}
	return obs.NewMilestones(obs.Nop(), p.G(spec.K), espan)
}

// countEngine is the run-loop surface shared by the sequential count
// engine (countsim.Sim) and the batched one (countsim.Batch); runCountTrial
// drives either through it.
type countEngine interface {
	RunUntilCtx(ctx context.Context, pred func(counts []int) bool, maxInteractions uint64) (bool, error)
	Interactions() uint64
	Productive() uint64
	CountsView() []int
}

// runCountTrial runs a trial on the count-based engine (sequential or
// batched). Grouping marks are reconstructed from the gk count observed
// inside the stop predicate; on the batched engine the predicate only
// runs at batch boundaries, so marks are boundary-granular there.
func runCountTrial(ctx context.Context, p *core.Protocol, spec TrialSpec, ropts RunOptions) (TrialResult, error) {
	var s countEngine
	engSpan := "engine/count"
	if spec.Engine == EngineBatch {
		// The batched engine re-checks the Lemma 1 invariant at every
		// batch boundary on top of its own null-weight audit: bulk
		// application must not be able to leave the reachable region
		// silently.
		b, err := countsim.NewBatch(p, spec.N, spec.Seed, countsim.BatchOptions{
			Size:  spec.BatchSize,
			Check: p.CheckInvariant,
		})
		if err != nil {
			return TrialResult{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
		s = b
		engSpan = "engine/batch"
	} else {
		seq, err := countsim.New(p, spec.N, spec.Seed)
		if err != nil {
			return TrialResult{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
		s = seq
	}
	maxI := spec.MaxInteractions
	if maxI == 0 {
		maxI = sim.DefaultMaxInteractions
	}
	stable, err := p.StableChecker(spec.N)
	if err != nil {
		return TrialResult{}, err
	}
	var prog *obs.Progress
	if ropts.Progress > 0 {
		prog = &obs.Progress{
			Every: ropts.Progress,
			Label: fmt.Sprintf("n=%d k=%d seed=%#x", spec.N, spec.K, spec.Seed),
		}
	}
	// Phase spans are timed on the engine's own interaction counter,
	// which includes the geometrically skipped null runs.
	espan := span.FromContext(ctx).Child(engSpan)
	ms := milestones(p, spec, espan)
	pred := func(counts []int) bool {
		if prog != nil {
			prog.MaybeReport(s.Interactions(), s.Productive(), func() int {
				return spreadOf(p.GroupSizesFromCounts(counts))
			})
		}
		if ms != nil {
			ms.Observe(s.Interactions(), counts)
		}
		return stable(counts)
	}
	ok, err := s.RunUntilCtx(ctx, pred, maxI)
	if espan != nil {
		espan.SetSeq(0, s.Interactions()).
			SetAttr("interactions", fmt.Sprint(s.Interactions())).
			SetAttr("productive", fmt.Sprint(s.Productive()))
		espan.End()
	}
	if err != nil {
		return TrialResult{}, err
	}
	res := TrialResult{
		Spec:         spec,
		Interactions: s.Interactions(),
		Productive:   s.Productive(),
		Converged:    ok,
		Spread:       spreadOf(p.GroupSizesFromCounts(s.CountsView())),
	}
	if spec.Grouping {
		res.Marks = ms.Marks()
	}
	return res, nil
}

// spreadOf returns max−min of a group-size vector.
func spreadOf(sizes []int) int {
	if len(sizes) == 0 {
		return 0
	}
	min, max := sizes[0], sizes[0]
	for _, v := range sizes[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// RunManyCtx executes specs over a worker pool under ctx and returns
// results in input order. workers <= 0 selects GOMAXPROCS. Every spec is
// attempted; the first error is returned alongside the full result
// slice. Results are a pure function of the specs — independent of
// worker count, scheduling order, journal hits, and deadlines, which can
// fail a trial but never change its result (the differential tests pin
// this down).
//
// Each trial goes through RunTimedCtx: with opts.Journal set, trials
// whose spec key is already journaled are returned without re-running,
// and each freshly completed trial is appended to the journal as soon as
// it finishes — so a crash or cancellation loses at most the in-flight
// trials.
//
// Cancellation is graceful: no new trials are dispatched, in-flight
// trials abort at their next poll, completed results (and the journal)
// are retained, and ctx.Err() is returned.
func RunManyCtx(ctx context.Context, specs []TrialSpec, workers int, opts RunOptions) ([]TrialResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]TrialResult, len(specs))
	errs := make([]error, len(specs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], _, _, errs[i] = RunTimedCtx(ctx, specs[i], opts)
			}
		}()
	}
dispatch:
	for i := range specs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("harness: batch interrupted: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// RunTimedCtx runs one trial of a batch behind opts.Journal. A trial the
// journal already holds is answered from it (counted in harness/resumed)
// with resumed set and its recorded wall time; any other trial runs under
// RunTrialCtx, timed, and is appended to the journal once it completes.
func RunTimedCtx(ctx context.Context, spec TrialSpec, opts RunOptions) (res TrialResult, wall time.Duration, resumed bool, err error) {
	if opts.Journal != nil {
		if e, ok := opts.Journal.Lookup(spec); ok {
			Metrics().Counter("harness/resumed").Inc()
			return e.Result, time.Duration(e.WallUS) * time.Microsecond, true, nil
		}
	}
	start := time.Now()
	res, err = RunTrialCtx(ctx, spec, opts)
	wall = time.Since(start)
	if err == nil && opts.Journal != nil {
		err = opts.Journal.Append(res, wall)
	}
	return res, wall, false, err
}

// Point is one aggregated parameter point of an experiment.
type Point struct {
	N, K   int
	Trials int
	// Mean, CI95, Min and Max are over interactions-to-stability of the
	// converged trials; all are 0 when no trial converged.
	Mean float64
	CI95 float64
	Min  uint64
	Max  uint64
	// Median and P90 expose the run-length distribution's shape: the
	// stabilization time is heavy-tailed (a late m-m collision restarts
	// k chains), so the mean alone overstates the typical run.
	Median float64
	P90    float64
	// MeanDeltas[i] is the mean of NI'_(i+1) (per-grouping interaction
	// cost) over trials; only filled for grouping experiments. The last
	// entry is the mean remainder tail when n mod k != 0.
	MeanDeltas []float64
	// Unconverged counts trials that hit the interaction cap.
	Unconverged int
}

// Aggregate folds a point's trials into a Point.
func Aggregate(n, k int, trials []TrialResult) Point {
	pt := Point{N: n, K: k, Trials: len(trials)}
	xs := make([]float64, 0, len(trials))
	for _, tr := range trials {
		if !tr.Converged {
			pt.Unconverged++
			continue
		}
		if len(xs) == 0 || tr.Interactions < pt.Min {
			pt.Min = tr.Interactions
		}
		if tr.Interactions > pt.Max {
			pt.Max = tr.Interactions
		}
		xs = append(xs, float64(tr.Interactions))
	}
	pt.Mean = stats.Mean(xs)
	pt.CI95 = stats.CI95(xs)
	if len(xs) > 0 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		pt.Median = stats.Quantile(sorted, 0.5)
		pt.P90 = stats.Quantile(sorted, 0.9)
	}

	// Per-grouping decomposition: average NI'_i across trials. Trials of
	// the same (n, k) all have the same number of groupings ⌊n/k⌋ and the
	// same presence of a remainder tail, so rows align.
	groupings := 0
	for _, tr := range trials {
		if len(tr.Marks) > groupings {
			groupings = len(tr.Marks)
		}
	}
	if groupings > 0 {
		withTail := groupings
		hasTail := n%k != 0
		if hasTail {
			withTail++
		}
		sums := make([]float64, withTail)
		counts := make([]int, withTail)
		for _, tr := range trials {
			if !tr.Converged || len(tr.Marks) == 0 {
				continue
			}
			deltas := obs.Deltas(tr.Marks, tr.Interactions)
			for i, d := range deltas {
				if i < len(sums) {
					sums[i] += float64(d)
					counts[i]++
				}
			}
		}
		pt.MeanDeltas = make([]float64, withTail)
		for i := range sums {
			if counts[i] > 0 {
				pt.MeanDeltas[i] = sums[i] / float64(counts[i])
			}
		}
	}
	return pt
}

// SweepSpec describes one aggregated parameter point of a sweep: `Trials`
// trials of the embedded TrialSpec, whose Seed is the root seed. Trial t
// runs under SeedForCell(Seed, PointID, t).
type SweepSpec struct {
	TrialSpec
	Trials  int
	PointID uint64
	Workers int
}

// Specs expands the sweep point into its per-trial specs, in trial order:
// copies of the embedded spec that differ only in Seed.
func (s SweepSpec) Specs() []TrialSpec {
	specs := make([]TrialSpec, s.Trials)
	for t := range specs {
		specs[t] = s.TrialSpec
		specs[t].Seed = SeedForCell(s.Seed, s.PointID, t)
	}
	return specs
}

// SweepPointCtx runs a sweep point under ctx with the given execution
// policy and aggregates the trials.
func SweepPointCtx(ctx context.Context, s SweepSpec, opts RunOptions) (Point, error) {
	results, err := RunManyCtx(ctx, s.Specs(), s.Workers, opts)
	if err != nil {
		return Point{}, err
	}
	return Aggregate(s.N, s.K, results), nil
}
