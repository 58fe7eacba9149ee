package sim_test

// Run's fused loop (the paper's evaluation model: uniform random
// scheduler, CountTarget, table-backed protocol, hooks marked
// IgnoresNull) against its general loop, which stays the reference.
// Wrapping the same *sched.Random in a sched.Func is enough to keep a run
// on the general loop, so these tests need no switch in the engine.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// general hides r behind a sched.Func, which keeps a run on the general
// loop while it draws the same pairs.
func general(r *sched.Random) sched.Scheduler {
	return sched.Func{SchedName: r.Name(), F: r.Next}
}

// observed is everything a run leaves behind that the two loops must
// agree on, the milestone observer's marks, metrics and spans included.
type observed struct {
	res      sim.Result
	err      error
	states   []protocol.State
	rngState rng.Xoshiro256
	marks    []uint64
	metrics  obs.Snapshot
	spans    []span.Span
}

// runLoop runs n agents of the k-partition protocol to stability or
// maxI interactions with a traced milestone observer attached, on the
// fused loop or, when viaFunc is set, on the general loop. Extra hooks
// ride along.
func runLoop(t *testing.T, ctx context.Context, n, k int, seed, maxI uint64, viaFunc bool, extra ...sim.Hook) observed {
	t.Helper()
	p := core.MustNew(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.NewTrace("fused")
	root := tr.Root("engine/agent")
	reg := obs.New("fused")
	ms := obs.NewMilestones(reg, p.G(k), root)
	hooks := append([]sim.Hook{ms}, extra...)

	r := sched.NewRandom(seed)
	var s sched.Scheduler = r
	if viaFunc {
		s = general(r)
	}
	pop := population.New(p, n)
	res, err := sim.Run(pop, s, sim.NewCountTarget(p.CanonMap(), target),
		sim.Options{MaxInteractions: maxI, Hooks: hooks, Ctx: ctx})
	root.End()
	return observed{
		res: res, err: err,
		states:   pop.Snapshot(),
		rngState: *r.RNG().Xoshiro(),
		marks:    ms.Marks(),
		metrics:  reg.Snapshot(),
		spans:    tr.Spans(),
	}
}

func TestFusedLoopMatchesGeneral(t *testing.T) {
	var converged, capped int
	prop := func(nRaw, kRaw uint16, seed uint64, capRaw uint32) bool {
		n := 3 + int(nRaw)%1998        // [3, 2000]
		k := 2 + int(kRaw)%11          // [2, 12]
		maxI := 1 + uint64(capRaw)%3e5 // often lands mid-run
		fused := runLoop(t, context.Background(), n, k, seed, maxI, false)
		ref := runLoop(t, context.Background(), n, k, seed, maxI, true)
		if fused.err != nil || ref.err != nil {
			t.Fatalf("n=%d k=%d: errors %v / %v", n, k, fused.err, ref.err)
		}
		if !reflect.DeepEqual(fused, ref) {
			t.Errorf("n=%d k=%d seed=%#x cap=%d: fused loop\n%+v\ngeneral loop\n%+v", n, k, seed, maxI, fused, ref)
			return false
		}
		if fused.res.Converged {
			converged++
		} else {
			capped++
		}
		return true
	}
	count := 60
	if testing.Short() {
		count = 15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
	// Both exits must have been compared, or the property proved less
	// than it says.
	if converged == 0 || capped == 0 {
		t.Fatalf("%d runs converged and %d hit the cap; want both kinds", converged, capped)
	}
}

// cancelAfter cancels a context on its after-th productive step. It is a
// marked hook, so it leaves a run on the fused loop.
type cancelAfter struct {
	cancel context.CancelFunc
	after  int
}

func (c *cancelAfter) Init(*population.Population) {}

func (c *cancelAfter) OnStep(_ *population.Population, s sim.StepInfo) {
	if s.Changed {
		if c.after--; c.after == 0 {
			c.cancel()
		}
	}
}

func (c *cancelAfter) IgnoresNull() {}

// A context cancelled mid-run stops both loops at the same poll point,
// with the same partial result and generator state.
func TestFusedLoopCancelsAtSamePoll(t *testing.T) {
	for _, c := range []struct {
		n, k  int
		after int
	}{{960, 8, 5000}, {97, 4, 100}, {300, 6, 50}} {
		run := func(viaFunc bool) observed {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return runLoop(t, ctx, c.n, c.k, 0xc0ffee, 0, viaFunc, &cancelAfter{cancel: cancel, after: c.after})
		}
		fused, ref := run(false), run(true)
		if !errors.Is(fused.err, context.Canceled) || !errors.Is(ref.err, context.Canceled) {
			t.Fatalf("n=%d k=%d: errors %v / %v, want context.Canceled", c.n, c.k, fused.err, ref.err)
		}
		if fused.res.Interactions == 0 || fused.res.Interactions%4096 != 0 {
			t.Fatalf("n=%d k=%d: fused loop stopped at %d, not at a poll point", c.n, c.k, fused.res.Interactions)
		}
		fused.err, ref.err = nil, nil
		if !reflect.DeepEqual(fused, ref) {
			t.Fatalf("n=%d k=%d: cancelled fused loop\n%+v\ngeneral loop\n%+v", c.n, c.k, fused, ref)
		}
	}
}

// stepCount counts every step it is shown, though its marker says it
// ignores null steps: the count tells which loop ran. On the fused loop
// it sees exactly the productive steps, on the general loop all of them.
type stepCount struct{ steps uint64 }

func (c *stepCount) Init(*population.Population)                 { c.steps = 0 }
func (c *stepCount) OnStep(*population.Population, sim.StepInfo) { c.steps++ }
func (c *stepCount) IgnoresNull()                                {}

// opaque hides a protocol's transition table behind the Protocol
// interface.
type opaque struct{ protocol.Protocol }

// Only the run's inputs pick the loop: any one departure from the
// paper's evaluation model sends the run to the general loop, and the
// result stays the same.
func TestRunPicksLoopFromInputs(t *testing.T) {
	const n, k, seed = 60, 4, 5
	p := core.MustNew(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	type inputs struct {
		proto protocol.Protocol
		sched sched.Scheduler
		stop  sim.StopCondition
		opts  sim.Options
	}
	base := func() inputs {
		return inputs{p, sched.NewRandom(seed), sim.NewCountTarget(p.CanonMap(), target), sim.Options{}}
	}
	reg := obs.New("loop")
	tally := obs.NewRuleTally(reg, []string{"productive"}, func(a, b protocol.State) int { return 0 })
	cases := []struct {
		name  string
		edit  func(*inputs)
		fused bool
	}{
		{"evaluation model", func(*inputs) {}, true},
		{"scheduler behind sched.Func", func(in *inputs) { in.sched = general(sched.NewRandom(seed)) }, false},
		{"non-xoshiro generator", func(in *inputs) {
			in.sched = sched.NewRandomFrom(rng.FromSource(rng.NewSplitMix64(seed)))
		}, false},
		{"stop condition not a CountTarget", func(in *inputs) { in.stop = sim.Any{in.stop} }, false},
		{"invariant checks", func(in *inputs) {
			in.opts.InvariantEvery = 1000
			in.opts.Invariant = func(pop *population.Population) error { return p.CheckInvariant(pop.CountsView()) }
		}, false},
		{"protocol without a table", func(in *inputs) { in.proto = opaque{p} }, false},
		{"unmarked hook", func(in *inputs) { in.opts.Hooks = []sim.Hook{tally} }, false},
	}
	var want sim.Result
	for i, c := range cases {
		in := base()
		c.edit(&in)
		seen := &stepCount{}
		in.opts.Hooks = append([]sim.Hook{seen}, in.opts.Hooks...)
		res, err := sim.Run(population.New(in.proto, n), in.sched, in.stop, in.opts)
		if err != nil || !res.Converged {
			t.Fatalf("%s: converged=%v err=%v", c.name, res.Converged, err)
		}
		wantSeen := res.Interactions
		if c.fused {
			wantSeen = res.Productive
		}
		if seen.steps != wantSeen {
			t.Errorf("%s: marked hook saw %d steps, want %d (fused loop: %v)", c.name, seen.steps, wantSeen, c.fused)
		}
		if c.name == "non-xoshiro generator" {
			continue // a different stream
		}
		if i == 0 {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: result %+v, want %+v", c.name, res, want)
		}
	}
	// The unmarked RuleTally saw every encounter, null ones included.
	snap := reg.Snapshot()
	if m, _ := snap.Find("sim/null_interactions"); m.Value != want.Interactions-want.Productive {
		t.Errorf("RuleTally counted %d null encounters, want %d", m.Value, want.Interactions-want.Productive)
	}
	if m, _ := snap.Find("sim/interactions"); m.Value != want.Interactions {
		t.Errorf("RuleTally counted %d encounters, want %d", m.Value, want.Interactions)
	}
}

// A fused run allocates the same at any length: only finish's two
// result slices, FinalCounts and GroupSizes. An untraced milestone
// observer adds nothing once its marks have grown in the warm-up run.
func TestFusedRunAllocs(t *testing.T) {
	p := core.MustNew(8)
	target, err := p.TargetCounts(960)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(p, 960)
	s := sched.NewRandom(1)
	// No slot of the target is occupied, so the condition never holds.
	stop := sim.NewCountTarget(p.CanonMap(), make([]int, len(target)))
	hooks := []sim.Hook{obs.NewMilestones(obs.Nop(), p.G(8), nil)}
	for _, maxI := range []uint64{1e4, 1e6} {
		allocs := testing.AllocsPerRun(3, func() {
			pop.Reset()
			if _, err := sim.Run(pop, s, stop, sim.Options{MaxInteractions: maxI, Hooks: hooks}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("fused run of %d interactions: %v allocations, want 2", maxI, allocs)
		}
	}
}
