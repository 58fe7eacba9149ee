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

// zeroFirstSeed returns a seed whose generator's first output is 0, which
// Lemire rejects for every bound. NewXoshiro256 fills the state words
// s0…s3 with the SplitMix64 outputs mix(seed + i·γ), i = 1…4, where γ is
// SplitMix64's increment; mix maps 0 to 0, so seed −2γ makes s1 zero, and
// xoshiro256** first outputs rotl(5·s1, 7)·9.
func zeroFirstSeed() uint64 {
	gamma := uint64(0x9e3779b97f4a7c15)
	return 0 - 2*gamma
}

// restartOnce, on the first productive step it sees, sets the generator
// x to zeroFirstSeed's. It is a marked hook, so the fused loop runs it
// between storing its register-held generator back to x and reloading it.
type restartOnce struct {
	x    *rng.Xoshiro256
	done bool
}

func (r *restartOnce) Init(*population.Population) {}

func (r *restartOnce) OnStep(_ *population.Population, s sim.StepInfo) {
	if s.Changed && !r.done {
		*r.x = *rng.NewXoshiro256(zeroFirstSeed())
		r.done = true
	}
}

func (r *restartOnce) IgnoresNull() {}

// No seeded run draws from Lemire's rejected region (about n/2⁶⁴ per
// draw), so the fused loop's out-of-line redraw runs only from a
// generator built to reach it. Both loops start from zeroFirstSeed's
// generator, so the first initiator draw is rejected; with restartOnce
// they start over from it after the first productive step, so a rejected
// draw follows the reload after a callback. They must agree on
// everything, the generator's final state included. (No seed gives a
// generator whose second output is rejected, so the responder draw's
// redraw is tested in package rng, from the reference state.)
func TestFusedLoopRedrawsRejectedDraw(t *testing.T) {
	const n, k = 960, 8
	seed := zeroFirstSeed()
	if v := rng.NewXoshiro256(seed).Uint64(); v != 0 {
		t.Fatalf("seed %#x: first output %#x, want 0", seed, v)
	}
	p := core.MustNew(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxI uint64, restart, viaFunc bool) observed {
		r := sched.NewRandom(seed)
		var s sched.Scheduler = r
		if viaFunc {
			s = general(r)
		}
		var hooks []sim.Hook
		if restart {
			hooks = append(hooks, &restartOnce{x: r.RNG().Xoshiro()})
		}
		pop := population.New(p, n)
		res, err := sim.Run(pop, s, sim.NewCountTarget(p.CanonMap(), target), sim.Options{MaxInteractions: maxI, Hooks: hooks})
		return observed{res: res, err: err, states: pop.Snapshot(), rngState: *r.RNG().Xoshiro()}
	}
	// One encounter draws three values: the rejected 0, the initiator's
	// redraw and the responder.
	three := rng.NewXoshiro256(seed)
	three.Uint64()
	three.Uint64()
	three.Uint64()
	if got := run(1, false, false); got.rngState != *three {
		t.Fatalf("after one encounter the generator is at %+v, want three draws on, %+v", got.rngState, *three)
	}
	for _, maxI := range []uint64{1, 2, 1e5} {
		for _, restart := range []bool{false, true} {
			fused, ref := run(maxI, restart, false), run(maxI, restart, true)
			if fused.err != nil || ref.err != nil {
				t.Fatalf("cap %d restart %v: errors %v / %v", maxI, restart, fused.err, ref.err)
			}
			if !reflect.DeepEqual(fused, ref) {
				t.Errorf("cap %d restart %v: fused loop\n%+v\ngeneral loop\n%+v", maxI, restart, fused, ref)
			}
		}
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
	var watched uint64
	unmarked := sim.StepFunc(func(*population.Population, sim.StepInfo) { watched++ })
	cases := []struct {
		name  string
		edit  func(*inputs)
		fused bool
	}{
		{"evaluation model", func(*inputs) {}, true},
		{"scheduler behind sched.Func", func(in *inputs) { in.sched = general(sched.NewRandom(seed)) }, false},
		{"stop condition not a CountTarget", func(in *inputs) { in.stop = sim.Any{in.stop} }, false},
		{"protocol without a table", func(in *inputs) { in.proto = opaque{p} }, false},
		{"unmarked hook", func(in *inputs) { in.opts.Hooks = []sim.Hook{unmarked} }, false},
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
		if i == 0 {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: result %+v, want %+v", c.name, res, want)
		}
	}
	// The unmarked hook saw every encounter, null ones included.
	if watched != want.Interactions {
		t.Errorf("unmarked hook saw %d encounters, want %d", watched, want.Interactions)
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
