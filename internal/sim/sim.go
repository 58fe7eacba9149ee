// Package sim is the sequential simulation engine: it drives a population
// under a scheduler until a stop condition fires, counting interactions
// exactly the way the paper's Section 5 does (every scheduled encounter
// counts, productive or not).
//
// The engine is deliberately protocol-agnostic. Protocol-specific knowledge
// — e.g. the closed-form stable signature of the k-partition protocol —
// enters through the StopCondition interface, so the same engine runs the
// paper's protocol, the bipartition special case, and every baseline.
//
// Run has two loops with one result. The general loop calls the
// scheduler, the stop condition and every hook on every encounter. The
// fused loop serves the paper's evaluation model, where almost every
// encounter is null (98.6% at the Figure 6 point): it touches the stop
// condition and the hooks only on productive encounters, so a null one
// costs two steps of a generator held in registers and one
// transition-table read. Run takes the fused loop when all four of
// these hold, and the general loop otherwise:
//
//   - the scheduler is a *sched.Random;
//   - the stop condition is a *CountTarget;
//   - the protocol is table-backed (protocol.Table.TransitionsView);
//   - every hook declares that it ignores null steps (see Hook).
//
// On the fused loop a null encounter is something the engine counts and
// no observer visits. Only a hook that watches null steps (trace.Writer,
// SpreadRecorder, StepFunc) or a departure from the evaluation model
// (the sweep, hostile, weakly fair and graph-restricted schedulers,
// another stop condition) keeps a run on the general loop.
//
// Both loops draw the same pairs, apply the same transitions, poll the
// context at the same interaction counts and stop at the same step, so
// the choice never changes a Result, a trajectory or what a hook records.
// Only the inputs pick the loop; there is no switch.
package sim

import (
	"context"

	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
)

// StepInfo describes one applied interaction for stop conditions and hooks.
type StepInfo struct {
	I, J    int           // agent indices (initiator, responder)
	Before  protocol.Pair // states before the encounter
	After   protocol.Pair // states after the encounter
	Changed bool          // whether any state changed
}

// StopCondition decides when a run is finished. Init is called once before
// the first step; Step is called after every applied interaction and
// returns true to stop. Implementations may keep state and are not safe
// for concurrent use.
type StopCondition interface {
	Init(pop *population.Population)
	Step(pop *population.Population, s StepInfo) bool
}

// Hook observes every applied interaction (after the stop condition).
//
// A hook whose OnStep does nothing on a step with Changed == false may
// declare so with the optional marker method
//
//	IgnoresNull()
//
// the way stop conditions declare Satisfied. Run may then skip the
// hook's null steps, which lets it take the fused loop (see the package
// documentation); a hook without the marker sees every step.
// obs.Milestones and obs.Progress carry the marker; SpreadRecorder,
// StepFunc and trace.Writer do not.
type Hook interface {
	Init(pop *population.Population)
	OnStep(pop *population.Population, s StepInfo)
}

// Options configures a run.
type Options struct {
	// MaxInteractions aborts a run that has not stopped after this many
	// encounters; 0 means DefaultMaxInteractions. A run hitting the cap
	// returns Result.Converged == false rather than an error, because
	// adversarial-scheduler experiments hit it on purpose.
	MaxInteractions uint64
	// Hooks are invoked on every step, in order, after the stop
	// condition; a hook marked IgnoresNull (see Hook) may be skipped on
	// null steps. A hook without the marker keeps the run on the
	// general loop.
	Hooks []Hook
	// Ctx, when non-nil, lets a run be cancelled (or deadlined) from the
	// outside. It is polled every ctxPollMask+1 applied interactions —
	// cheap enough to be free on the hot loop, frequent enough that a
	// SIGINT or wall deadline lands within microseconds — and a fired
	// context aborts the run with its error and a partial Result.
	Ctx context.Context
}

// ctxPollMask sets the context-poll cadence: Ctx.Err is consulted when
// Interactions&ctxPollMask == 0 (every 4096 encounters).
const ctxPollMask = 1<<12 - 1

// DefaultMaxInteractions bounds runs whose Options leave the cap at zero.
// The costliest standard workload (Fig. 6 at n=960, large k) needs on the
// order of 10^8–10^9 interactions, so the default sits above that.
const DefaultMaxInteractions = 4_000_000_000

// Result summarizes a run.
type Result struct {
	// Interactions is the total number of encounters applied, the paper's
	// time metric.
	Interactions uint64
	// Productive is the number of encounters that changed some state.
	Productive uint64
	// Converged reports whether the stop condition fired (false: the run
	// hit MaxInteractions first).
	Converged bool
	// FinalCounts is the state-count vector at the end of the run.
	FinalCounts []int
	// GroupSizes is the group-size vector at the end of the run.
	GroupSizes []int
}

// Spread returns max−min of the final group sizes.
func (r Result) Spread() int {
	if len(r.GroupSizes) == 0 {
		return 0
	}
	min, max := r.GroupSizes[0], r.GroupSizes[0]
	for _, v := range r.GroupSizes[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// Run drives pop under s until stop fires or the interaction cap is hit.
// The population is mutated in place; callers wanting a fresh run each time
// should pass a fresh or Reset population.
func Run(pop *population.Population, s sched.Scheduler, stop StopCondition, opts Options) (Result, error) {
	maxI := opts.MaxInteractions
	if maxI == 0 {
		maxI = DefaultMaxInteractions
	}
	stop.Init(pop)
	for _, h := range opts.Hooks {
		h.Init(pop)
	}
	// The initial configuration may already satisfy the stop condition
	// (e.g. CountTarget with a degenerate target); probe it with a
	// zero-step check by running the loop only afterwards. StopCondition
	// has no "check now" method by design — Init implementations that can
	// be pre-satisfied record it and report on the first Step — so the
	// engine asks conditions that implement the optional interface.
	if pre, ok := stop.(interface{ Satisfied() bool }); ok && pre.Satisfied() {
		return finish(pop, true), nil
	}
	if x, delta, target, ok := fusable(pop, s, stop, opts); ok {
		return runFused(pop, x, delta, target, maxI, opts)
	}

	var info StepInfo
	for pop.Interactions() < maxI {
		if opts.Ctx != nil && pop.Interactions()&ctxPollMask == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return finish(pop, false), err
			}
		}
		i, j := s.Next(pop)
		p, q := pop.State(i), pop.State(j)
		changed := pop.Interact(i, j)
		info = StepInfo{
			I: i, J: j,
			Before:  protocol.Pair{P: p, Q: q},
			After:   protocol.Pair{P: pop.State(i), Q: pop.State(j)},
			Changed: changed,
		}
		done := stop.Step(pop, info)
		for _, h := range opts.Hooks {
			h.OnStep(pop, info)
		}
		if done {
			return finish(pop, true), nil
		}
	}
	return finish(pop, false), nil
}

// fusable reports whether a run can take the fused loop (see the
// package documentation) and returns what that loop reads: the
// scheduler's generator, the protocol's transition table and the stop
// condition as a *CountTarget.
func fusable(pop *population.Population, s sched.Scheduler, stop StopCondition, opts Options) (*rng.Xoshiro256, []protocol.Pair, *CountTarget, bool) {
	random, ok := s.(*sched.Random)
	if !ok {
		return nil, nil, nil, false
	}
	target, ok := stop.(*CountTarget)
	if !ok {
		return nil, nil, nil, false
	}
	table, ok := pop.Protocol().(interface{ TransitionsView() []protocol.Pair })
	if !ok {
		return nil, nil, nil, false
	}
	for _, h := range opts.Hooks {
		if _, ok := h.(interface{ IgnoresNull() }); !ok {
			return nil, nil, nil, false
		}
	}
	return random.RNG().Xoshiro(), table.TransitionsView(), target, true
}

// runFused is Run's fused loop. Population.InteractUniform runs the
// encounters between context polls and calls back only on productive
// ones; the stop condition and the hooks see exactly those, which is all
// a CountTarget and a hook marked IgnoresNull act on.
func runFused(pop *population.Population, x *rng.Xoshiro256, delta []protocol.Pair, stop *CountTarget, maxI uint64, opts Options) (Result, error) {
	step := func(i, j int, before, after protocol.Pair) bool {
		info := StepInfo{I: i, J: j, Before: before, After: after, Changed: true}
		done := stop.Step(pop, info)
		for _, h := range opts.Hooks {
			h.OnStep(pop, info)
		}
		return done
	}
	for at := pop.Interactions(); at < maxI; at = pop.Interactions() {
		if opts.Ctx != nil && at&ctxPollMask == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return finish(pop, false), err
			}
		}
		until := maxI
		if poll := at | ctxPollMask; poll < maxI {
			until = poll + 1
		}
		if pop.InteractUniform(x, delta, until, step) {
			return finish(pop, true), nil
		}
	}
	return finish(pop, false), nil
}

func finish(pop *population.Population, converged bool) Result {
	return Result{
		Interactions: pop.Interactions(),
		Productive:   pop.Productive(),
		Converged:    converged,
		FinalCounts:  pop.Counts(),
		GroupSizes:   pop.GroupSizes(),
	}
}
