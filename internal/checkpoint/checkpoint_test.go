package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

// THE contract: a run paused at T and resumed must produce the identical
// future as the uninterrupted run — same states, same counters, at every
// subsequent step.
func TestResumeEquivalence(t *testing.T) {
	p := core.MustNew(4)
	const n = 20
	const pauseAt = 1500
	const extra = 3000

	// Uninterrupted reference run.
	refPop := population.New(p, n)
	refSched := sched.NewRandom(99)
	if _, err := sim.Run(refPop, refSched, sim.After{N: pauseAt + extra}, sim.Options{}); err != nil {
		t.Fatal(err)
	}

	// Run to the pause point, capture, serialize, restore, continue.
	pop := population.New(p, n)
	s := sched.NewRandom(99)
	if _, err := sim.Run(pop, s, sim.After{N: pauseAt}, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	snap, err := Capture(pop, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	snap2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	s2 := sched.NewRandom(0) // wrong seed on purpose; restore overwrites it
	pop2, err := Restore(p, s2, snap2)
	if err != nil {
		t.Fatal(err)
	}
	if pop2.Interactions() != pauseAt {
		t.Fatalf("restored counter %d", pop2.Interactions())
	}
	if _, err := sim.Run(pop2, s2, sim.After{N: pauseAt + extra}, sim.Options{}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if pop2.State(i) != refPop.State(i) {
			t.Fatalf("agent %d diverged after resume: %d vs %d", i, pop2.State(i), refPop.State(i))
		}
	}
	if pop2.Productive() != refPop.Productive() {
		t.Fatalf("productive counters diverged: %d vs %d", pop2.Productive(), refPop.Productive())
	}
}

// The same contract through sim.Run's fused loop, the one a uniform
// random run with a CountTarget takes: a run cut into segments, each
// ended by its cap or by a cancelled context and followed by a
// checkpoint round trip, ends byte-identical to the uncut run. So the
// loop writes the generator state and the counters back on every exit:
// cap, context error and stop.
func TestResumeEquivalenceFusedLoop(t *testing.T) {
	const n, k, seed = 200, 6, 0x5eed
	p := core.MustNew(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pop *population.Population, s *sched.Random, opts sim.Options) (sim.Result, error) {
		return sim.Run(pop, s, sim.NewCountTarget(p.CanonMap(), target), opts)
	}
	refPop, refSched := population.New(p, n), sched.NewRandom(seed)
	ref, err := run(refPop, refSched, sim.Options{})
	if err != nil || !ref.Converged {
		t.Fatalf("uncut run: converged=%v err=%v", ref.Converged, err)
	}
	if ref.Interactions < 100_000 {
		t.Fatalf("uncut run stabilized after %d interactions, too few to cut", ref.Interactions)
	}

	pop, s := population.New(p, n), sched.NewRandom(seed)
	resume := func() {
		t.Helper()
		snap, err := Capture(pop, s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if snap, err = Read(&buf); err != nil {
			t.Fatal(err)
		}
		s = sched.NewRandom(0) // restore overwrites the generator
		if pop, err = Restore(p, s, snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, cut := range []uint64{1, 4095, 4096, 12_289, 50_000, ref.Interactions - 1} {
		res, err := run(pop, s, sim.Options{MaxInteractions: cut})
		if err != nil || res.Converged || res.Interactions != cut {
			t.Fatalf("segment to %d: ended at %d, converged=%v err=%v", cut, res.Interactions, res.Converged, err)
		}
		resume()
		if cut != 12_289 {
			continue
		}
		// From 12289 a cancelled context lets the loop run to the next
		// poll point, 16384, and stop there.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err = run(pop, s, sim.Options{Ctx: ctx})
		if !errors.Is(err, context.Canceled) || res.Interactions != 16_384 {
			t.Fatalf("cancelled segment: ended at %d with %v, want 16384 and context.Canceled", res.Interactions, err)
		}
		resume()
	}
	res, err := run(pop, s, sim.Options{})
	if err != nil || !res.Converged {
		t.Fatalf("last segment: converged=%v err=%v", res.Converged, err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("cut run ended with %+v, uncut run with %+v", res, ref)
	}
	if !reflect.DeepEqual(pop.Snapshot(), refPop.Snapshot()) {
		t.Fatal("cut run ended in another configuration")
	}
	if !bytes.Equal(s.RNG().MarshalState(), refSched.RNG().MarshalState()) {
		t.Fatal("cut run left the generator in another state")
	}
}

func TestRestoreRejectsWrongProtocol(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 6)
	s := sched.NewRandom(1)
	snap, err := Capture(pop, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(core.MustNew(4), sched.NewRandom(1), snap); !errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("got %v", err)
	}
}

func TestRestoreRejectsWrongScheduler(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 6)
	snap, err := Capture(pop, sched.NewRandom(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(p, sched.NewSweep(), snap); !errors.Is(err, ErrSchedulerMismatch) {
		t.Fatalf("got %v", err)
	}
}

func TestCaptureSchedulerWithoutRNG(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 6)
	snap, err := Capture(pop, sched.NewSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.RNGState) != 0 {
		t.Fatal("sweep scheduler produced generator state")
	}
	// Restores cleanly (no generator to rehydrate).
	if _, err := Restore(p, sched.NewSweep(), snap); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestoreRejectsCorruptRNGState(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 6)
	s := sched.NewRandom(1)
	snap, err := Capture(pop, s)
	if err != nil {
		t.Fatal(err)
	}
	snap.RNGState = []byte{0xFF, 1, 2}
	if _, err := Restore(p, sched.NewRandom(2), snap); err == nil {
		t.Fatal("corrupt generator state accepted")
	}
}
