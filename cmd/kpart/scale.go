package main

// kpart scale runs the uniform k-partition protocol at scales the
// agent-level engine (and the paper's own evaluation) does not reach,
// using the count-based engine with geometric null-run skipping
// (internal/countsim): populations are limited by time-to-stability, not
// by memory, and the null-dominated tail is sampled in closed form.
//
//	kpart scale -n 100000 -k 8 -trials 5 [-seed 1]
//	kpart scale -n 960 -k 16,20,24 -trials 10     # extend Figure 6
//	kpart scale -n 100000000 -k 8 -engine batch   # planet scale: batched engine, ~1s/trial
//	kpart scale -n 1000000 -k 8 -progress 100000000 -debug-addr :6060
//	kpart scale -n 10000000 -k 8 -journal scale.journal -trial-timeout 2h
//	kpart scale -n 10000000 -k 8 -journal scale.journal -resume   # after a crash/SIGINT
//
// Scenario runs (restricted topologies, the weak-fairness adversary,
// churn) use the agent engine — identities matter on a graph — so they
// do not reach count-engine scales, but they reuse the same journal,
// resume, and JSON plumbing:
//
//	kpart scale -n 600 -k 3 -topology ring -trials 20      # freeze-rate survey
//	kpart scale -n 12 -k 3 -fairness weak -max 1000000     # adversary stall probe
//	kpart scale -n 600 -k 3 -churn at=5000,events=3,every=5000,leave=2,crash
//
// Scenario trials may legitimately not converge (frozen configurations,
// adversarial stalls); they are reported per-outcome instead of
// aborting the run.
//
// Wall time is reported per trial as min/median/p90/max (the
// stabilization-time distribution is heavy-tailed, so a mean alone
// misleads); -json writes the full per-trial data machine-readably.
//
// Trials at this scale run for hours, so the run is interruptible: with
// -journal each completed trial is checkpointed, SIGINT drains
// gracefully, and -resume skips everything already journaled (resumed
// trials reuse their recorded wall times in the summary).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
)

// trialRecord is one trial's outcome in the JSON output.
type trialRecord struct {
	Trial        int     `json:"trial"`
	Seed         uint64  `json:"seed"`
	Interactions uint64  `json:"interactions"`
	Productive   uint64  `json:"productive"`
	WallMS       float64 `json:"wall_ms"`
	Resumed      bool    `json:"resumed,omitempty"`
	// Scenario outcome fields: scenario trials may end frozen (or burn
	// the cap) instead of converging, and churn changes the final size.
	Converged bool `json:"converged,omitempty"`
	Frozen    bool `json:"frozen,omitempty"`
	FinalN    int  `json:"final_n,omitempty"`
}

// pointDoc aggregates one (n, k) point in the JSON output.
type pointDoc struct {
	N                int           `json:"n"`
	K                int           `json:"k"`
	Trials           int           `json:"trials"`
	MeanInteractions float64       `json:"mean_interactions"`
	CI95             float64       `json:"ci95"`
	MeanProductive   float64       `json:"mean_productive"`
	SkipFactor       float64       `json:"skip_factor"`
	Converged        int           `json:"converged,omitempty"`
	Frozen           int           `json:"frozen,omitempty"`
	WallMS           wallSummary   `json:"wall_ms"`
	PerTrial         []trialRecord `json:"per_trial"`
}

// wallSummary is the per-trial wall-time distribution in milliseconds.
type wallSummary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
}

// resultDoc is the top-level JSON document.
type resultDoc struct {
	Command   string     `json:"command"`
	Seed      uint64     `json:"seed"`
	CreatedAt string     `json:"created_at"`
	Resumed   int        `json:"resumed_trials,omitempty"`
	Points    []pointDoc `json:"points"`
}

func scaleCmd(ctx context.Context, args []string) error {
	fs := newFlags()
	var (
		n            = fs.Int("n", 100000, "population size")
		ksFlag       = fs.String("k", "8", "comma-separated group counts")
		trials       = fs.Int("trials", 5, "trials per k")
		seed         = fs.Uint64("seed", 1, "root seed")
		jsonPath     = fs.String("json", "", "write per-trial results as JSON to this file")
		debugAddr    = fs.String("debug-addr", "", "serve pprof and /debug/vars on this address (e.g. :6060)")
		progressN    = fs.Uint64("progress", 0, "interactions between live progress reports (0 = off)")
		journalPath  = fs.String("journal", "", "checkpoint completed trials to this journal file")
		resume       = fs.Bool("resume", false, "resume from -journal, skipping already-completed trials")
		trialTimeout = fs.Duration("trial-timeout", 0, "per-trial wall deadline (0 = none)")
		engineFlag   = fs.String("engine", "count", "count engine: count (sequential, exact distribution) or batch (aggregated batches, approximate interaction totals, fastest); scenario flags switch to agent")
		batchSize    = fs.Uint64("batch", 0, "batch engine: fixed matching size per batch (0 = adaptive aggregate mode)")
		topoFlag     = fs.String("topology", "", "interaction graph: complete (default), ring, star, grid:RxC, regular:D[@SEED]")
		fairFlag     = fs.String("fairness", "", "scheduler family: uniform (default) or weak (adversary)")
		churnFlag    = fs.String("churn", "", "join/leave schedule, e.g. at=5000,events=2,every=5000,leave=1,crash")
		maxIFlag     = fs.Uint64("max", 0, "interaction cap per trial (0 = unbounded; scenario runs default to 50M)")
	)
	if err := parseFlags(fs, args, map[string]int{"n": 3, "trials": 1}); err != nil {
		return err
	}

	eng, err := harness.ParseEngine(*engineFlag)
	if err != nil {
		return usageError{err}
	}
	topo, err := harness.ParseTopology(*topoFlag)
	if err != nil {
		return usageError{err}
	}
	fair, err := harness.ParseFairness(*fairFlag)
	if err != nil {
		return usageError{err}
	}
	churn, err := harness.ParseChurn(*churnFlag)
	if err != nil {
		return usageError{err}
	}
	// Scenario dimensions need agent identities, so they flip the default
	// engine to agent; an explicit -engine count/batch is then an error
	// rather than a silent override.
	scenario := !topo.IsComplete() || fair == harness.FairnessWeak || churn.Enabled()
	engineSet := false
	fs.Visit(func(f *flag.Flag) { engineSet = engineSet || f.Name == "engine" })
	if scenario {
		if engineSet && eng != harness.EngineAgent {
			return usagef("-topology/-fairness/-churn need the agent engine, not %s", eng)
		}
		eng = harness.EngineAgent
	} else if eng == harness.EngineAgent {
		return usagef("kpart scale is count-based; -engine must be count or batch (agent is only for scenario runs)")
	}
	if *batchSize != 0 && eng != harness.EngineBatch {
		return usagef("-batch requires -engine batch")
	}
	if *resume && *journalPath == "" {
		return usagef("-resume requires -journal")
	}
	maxI := *maxIFlag
	if maxI == 0 {
		maxI = 1 << 62
		if scenario {
			// Scenario trials can stall forever by design (adversaries,
			// trapped configurations the freeze detector cannot prove), so
			// an unbounded default would hang the survey.
			maxI = 50_000_000
		}
	}
	var ks []int
	for _, part := range strings.Split(*ksFlag, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 2 {
			return usagef("bad k %q", part)
		}
		ks = append(ks, k)
	}
	if err := serveDebug(*debugAddr); err != nil {
		return err
	}

	opts := harness.RunOptions{TrialTimeout: *trialTimeout, Progress: *progressN}
	meta := fmt.Sprintf("kpart-scale n=%d k=%s trials=%d seed=%d engine=%s batch=%d topo=%s fair=%s churn=%s max=%d",
		*n, *ksFlag, *trials, *seed, eng, *batchSize, topo, fair, churn, maxI)
	doc := resultDoc{
		Command:   strings.Join(os.Args, " "),
		Seed:      *seed,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	cols := []string{"n", "k", "trials", "mean_interactions", "ci95",
		"mean_productive", "skip_factor", "wall_min", "wall_median", "wall_p90", "wall_max"}
	if scenario {
		cols = append(cols, "converged", "frozen")
	}
	tbl := report.NewTable(cols...)
	err = journaled(*journalPath, meta, *resume, func(j *harness.Journal) error {
		opts.Journal = j
		for ki, k := range ks {
			var xs, wallMS []float64
			var productive, interactions uint64
			pt := pointDoc{N: *n, K: k, Trials: *trials}
			for t := 0; t < *trials; t++ {
				spec := harness.TrialSpec{
					N: *n, K: k,
					Seed:            rng.StreamSeed(*seed, uint64(ki), uint64(t)),
					MaxInteractions: maxI,
					Engine:          eng,
					BatchSize:       *batchSize,
					Topology:        topo,
					Fairness:        fair,
					Churn:           churn,
				}
				res, wall, resumed, err := harness.RunTimedCtx(ctx, spec, opts)
				if err != nil {
					return err
				}
				if !res.Converged && !scenario {
					return fmt.Errorf("n=%d k=%d trial %d did not stabilize", *n, k, t)
				}
				if resumed {
					doc.Resumed++
				}
				xs = append(xs, float64(res.Interactions))
				wallMS = append(wallMS, float64(wall)/float64(time.Millisecond))
				interactions += res.Interactions
				productive += res.Productive
				rec := trialRecord{
					Trial: t, Seed: spec.Seed,
					Interactions: res.Interactions, Productive: res.Productive,
					WallMS:  float64(wall) / float64(time.Millisecond),
					Resumed: resumed,
				}
				// Outcome fields only matter when trials can fail to converge;
				// non-scenario runs abort on the first unconverged trial, so
				// the fields would be constant noise there.
				if scenario {
					rec.Converged, rec.Frozen, rec.FinalN = res.Converged, res.Frozen, res.FinalN
					if res.Converged {
						pt.Converged++
					}
					if res.Frozen {
						pt.Frozen++
					}
				}
				pt.PerTrial = append(pt.PerTrial, rec)
			}
			pt.MeanInteractions = stats.Mean(xs)
			pt.CI95 = stats.CI95(xs)
			pt.MeanProductive = float64(productive) / float64(*trials)
			pt.SkipFactor = float64(interactions) / float64(productive)
			pt.WallMS = wallSummary{
				Min:    stats.QuantileOf(wallMS, 0),
				Median: stats.QuantileOf(wallMS, 0.5),
				P90:    stats.QuantileOf(wallMS, 0.9),
				Max:    stats.QuantileOf(wallMS, 1),
				Mean:   stats.Mean(wallMS),
			}
			doc.Points = append(doc.Points, pt)
			row := []any{*n, k, *trials, pt.MeanInteractions, pt.CI95,
				pt.MeanProductive, pt.SkipFactor,
				ms(pt.WallMS.Min), ms(pt.WallMS.Median), ms(pt.WallMS.P90), ms(pt.WallMS.Max)}
			if scenario {
				row = append(row, pt.Converged, pt.Frozen)
			}
			tbl.AddRow(row...)
		}
		return nil
	})
	if errors.Is(err, context.Canceled) && *journalPath == "" {
		logf("run with -journal to make runs resumable")
	}
	if err != nil {
		return err
	}
	switch {
	case scenario:
		fmt.Printf("agent engine, scenario: topology=%s fairness=%s churn=%s cap=%d\n", topo, fair, churn, maxI)
	case eng == harness.EngineBatch:
		fmt.Println("batched count engine (bulk sampled batches; interaction totals approximate in adaptive mode)")
	default:
		fmt.Println("count-based engine (exact distribution, null runs skipped geometrically)")
	}
	tbl.WriteTo(os.Stdout)
	if doc.Resumed > 0 {
		fmt.Printf("(%d of %d trials resumed from journal)\n", doc.Resumed, len(ks)**trials)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, doc); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	return nil
}

// ms renders a millisecond quantity as a duration string.
func ms(v float64) string {
	return time.Duration(v * float64(time.Millisecond)).Round(time.Millisecond).String()
}
