package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/serve"
)

// trialLoad is a closed-loop sweep workload: one operation runs the next
// seed of the seed set through harness.RunTrialCtx on each engine in
// turn, one trial at a time.
type trialLoad struct {
	n, k    int
	engines []harness.Engine
	// maxI is the specs' interaction cap (0 = the harness default).
	maxI uint64
	// tag separates the workload's seed stream from the other workloads'.
	tag uint64
	// warmI caps the set-up's warm-up trials.
	warmI uint64
	// spans says whether traced runs also time a traced RunTrialCtx. A
	// traced trial records one phase span per #gk milestone, n/k of them.
	spans bool
}

// fig6Load is the paper's Figure 6 point, the only one where all three
// engines do the same job.
func fig6Load(tiny bool) trialLoad {
	n := 960
	if tiny {
		n = 96
	}
	return trialLoad{
		n: n, k: 8,
		engines: []harness.Engine{harness.EngineAgent, harness.EngineCount, harness.EngineBatch},
		tag:     0xf16,
		warmI:   200_000,
		spans:   true,
	}
}

// scaleLoad is the batch engine at n = 10⁸, where all the work is
// aggregate batches. Stabilization there takes ~10¹⁷ interactions, far
// past the harness's default cap, so the specs lift it. Its traced runs
// skip the traced trial: its 12.5 M phase spans take ~5 GB.
func scaleLoad(tiny bool) trialLoad {
	n := 100_000_000
	if tiny {
		n = 100_000
	}
	return trialLoad{
		n: n, k: 8,
		engines: []harness.Engine{harness.EngineBatch},
		maxI:    1 << 62,
		tag:     0x5ca1e,
		warmI:   1 << 40,
	}
}

// spec is the i-th operation's trial on engine e. Every engine gets the
// same seed; the engines' trajectories differ anyway.
func (w trialLoad) spec(seed uint64, i int, e harness.Engine) harness.TrialSpec {
	return harness.TrialSpec{
		N: w.n, K: w.k,
		Seed:            rng.StreamSeed(seed, w.tag, uint64(i)),
		Engine:          e,
		MaxInteractions: w.maxI,
	}
}

// setUp runs one capped warm-up trial per engine, so the protocol tables
// are built and the code paths are warm before anything is timed. The
// warm-up seed is fixed: set-up does the same work on every seed.
func (w trialLoad) setUp() (struct{}, error) {
	for _, e := range w.engines {
		spec := w.spec(0, 0, e)
		spec.MaxInteractions = w.warmI
		if _, err := harness.RunTrialCtx(context.Background(), spec, harness.RunOptions{}); err != nil {
			return struct{}{}, fmt.Errorf("warm-up %s: %w", e, err)
		}
	}
	return struct{}{}, nil
}

// checkTrial is the correctness check for one trial: it ran without
// error (a Check violation surfaces as one) and converged to group sizes
// within 1 of each other.
func checkTrial(res harness.TrialResult, err error) error {
	switch {
	case err != nil:
		return err
	case !res.Converged:
		return fmt.Errorf("seed %#x: trial did not converge in %d interactions", res.Spec.Seed, res.Interactions)
	case res.Spread > 1:
		return fmt.Errorf("seed %#x: group sizes spread by %d", res.Spec.Seed, res.Spread)
	}
	return nil
}

// runTrials is an untraced run: set-up, then operations until cfg.dur is
// spent.
func runTrials(w trialLoad, cfg config, t *tally) (map[string]float64, error) {
	var setups []float64
	if _, err := timeSetup(setupBefore, &setups, w.setUp, func(struct{}) {}); err != nil {
		return nil, err
	}
	var ops []op
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.dur; i++ {
		at := time.Since(start)
		for _, e := range w.engines {
			res, err := harness.RunTrialCtx(context.Background(), w.spec(cfg.seed, i, e), harness.RunOptions{})
			t.check(checkTrial(res, err))
		}
		ops = append(ops, op{start: at, dur: time.Since(start) - at})
	}
	phase := time.Since(start)
	runtime.ReadMemStats(&m1)
	if _, err := timeSetup(setupAfter, &setups, w.setUp, func(struct{}) {}); err != nil {
		return nil, err
	}
	msPerOp, p50 := opStats(ops, phase)
	return map[string]float64{
		"setup_s":            median(setups),
		"ms_per_op":          msPerOp,
		"op_p50_ms":          p50,
		"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(ops)),
	}, nil
}

// engineTotals accumulates one engine's untraced and traced harness time.
type engineTotals struct {
	trials            int
	untraced, traced  time.Duration
	allocBytes        uint64
	replayEngineNanos float64
}

// traceTrials is a traced run: for each seed and engine it times an
// untraced and a traced RunTrialCtx, then replays the trial through the
// engine's public step functions with timers around each layer.
func traceTrials(w trialLoad, cfg config, t *tally) (map[string]float64, error) {
	var setups []float64
	if _, err := timeSetup(setupBefore, &setups, w.setUp, func(struct{}) {}); err != nil {
		return nil, err
	}
	l := layers{clock: clockNanos()}
	totals := make(map[harness.Engine]*engineTotals)
	for _, e := range w.engines {
		totals[e] = &engineTotals{}
	}
	var specs []harness.TrialSpec
	var results []harness.TrialResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.dur; i++ {
		for _, e := range w.engines {
			spec := w.spec(cfg.seed, i, e)
			tot := totals[e]
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, err := harness.RunTrialCtx(context.Background(), spec, harness.RunOptions{})
			tot.untraced += time.Since(t0)
			runtime.ReadMemStats(&m1)
			tot.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			tot.trials++
			if err := checkTrial(res, err); err != nil {
				t.check(err)
				continue
			}
			t.check(nil)
			specs = append(specs, spec)
			results = append(results, res)

			if w.spans {
				root := span.NewCollector(nil).NewTrace("perfbench").Root("perfbench")
				t1 := time.Now()
				tres, terr := harness.RunTrialCtx(span.NewContext(context.Background(), root), spec, harness.RunOptions{})
				tot.traced += time.Since(t1)
				root.End()
				t.check(sameResult(res, tres, terr))
			}

			before := l.engineNanos
			t.check(replay(spec, res, &l))
			tot.replayEngineNanos += l.engineNanos - before
		}
	}
	vals := l.values()
	var untraced, traced time.Duration
	var replayed float64
	var allocs uint64
	trials := 0
	for _, e := range w.engines {
		tot := totals[e]
		untraced += tot.untraced
		traced += tot.traced
		replayed += tot.replayEngineNanos
		allocs += tot.allocBytes
		trials += tot.trials
		vals[e.String()+"_ms_per_trial"] = ms(tot.untraced) / float64(tot.trials)
	}
	vals["alloc_bytes_per_trial"] = float64(allocs) / float64(trials)
	vals["harness.overhead_share"] = ratio(float64(untraced)-replayed, float64(untraced))
	if w.spans {
		vals["span.overhead_share"] = ratio(float64(traced-untraced), float64(untraced))
	}
	vals["failed_share"] = t.share()
	bt := totals[harness.EngineBatch]
	if bt != nil && bt.trials > 0 {
		vals["countsim.batch.fallback_ms_per_trial"] = l.fallbackNanos / 1e6 / float64(bt.trials)
		vals["countsim.batch.aggregate_ms_per_trial"] = l.aggregateNanos / 1e6 / float64(bt.trials)
		vals["core.check_ms_per_trial"] = l.checkNanos / 1e6 / float64(bt.trials)
	}
	if err := edgeCosts(specs, results, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// sameResult checks that a traced run reproduced the untraced result:
// spans are observational and must not change a trajectory.
func sameResult(want, got harness.TrialResult, err error) error {
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if got.Interactions != want.Interactions || got.Productive != want.Productive ||
		got.Converged != want.Converged || got.Spread != want.Spread {
		return fmt.Errorf("seed %#x %s: traced run ended at %d interactions (%d productive), untraced at %d (%d)",
			want.Spec.Seed, want.Spec.Engine, got.Interactions, got.Productive, want.Interactions, want.Productive)
	}
	return nil
}

// edgeReps is how many passes edgeCosts makes over its specs, so even a
// handful of specs gives calls long enough to time.
const edgeReps = 200

// edgeCosts times the per-request work the serving edge does for specs
// and their results: SpecKey, TrialRequest.Spec and Record.Encode.
func edgeCosts(specs []harness.TrialSpec, results []harness.TrialResult, vals map[string]float64) error {
	if len(specs) == 0 {
		return nil
	}
	reqs := make([]serve.TrialRequest, len(specs))
	recs := make([]serve.Record, len(specs))
	for i, s := range specs {
		reqs[i] = serve.TrialRequest{N: s.N, K: s.K, Seed: s.Seed, MaxInteractions: s.MaxInteractions, Engine: s.Engine.String()}
		recs[i] = serve.Record{SpecKey: harness.SpecKey(s), Result: results[i]}
	}
	calls := float64(edgeReps * len(specs))
	start := time.Now()
	for r := 0; r < edgeReps; r++ {
		for _, s := range specs {
			_ = harness.SpecKey(s)
		}
	}
	vals["harness.speckey_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	start = time.Now()
	for r := 0; r < edgeReps; r++ {
		for _, req := range reqs {
			if _, err := req.Spec(); err != nil {
				return fmt.Errorf("TrialRequest.Spec: %w", err)
			}
		}
	}
	vals["serve.spec_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	start = time.Now()
	for r := 0; r < edgeReps; r++ {
		for _, rec := range recs {
			if _, err := rec.Encode(); err != nil {
				return err
			}
		}
	}
	vals["serve.encode_ns"] = float64(time.Since(start).Nanoseconds()) / calls
	return nil
}
