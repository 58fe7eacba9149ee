package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// Differential determinism: RunManyCtx results are a pure function of the
// specs — worker count must not leak into any field. Byte-identical JSON
// is the strongest cheap form of that claim (it covers every exported
// field at once, including Marks, Spread, Frozen and FinalN).
func TestRunManyDifferentialDeterminism(t *testing.T) {
	var specs []TrialSpec
	for i := 0; i < 10; i++ {
		specs = append(specs, TrialSpec{
			N: 14 + i, K: 3, Seed: uint64(500 + i),
			Grouping: i%2 == 0,
			Engine:   Engine(i % 2), // alternate agent/count
		})
	}
	// The batched engine in both modes: adaptive (BatchSize 0) and exact
	// matching. Its results must be just as independent of worker count.
	for i := 0; i < 6; i++ {
		specs = append(specs, TrialSpec{
			N: 20 + i, K: 3, Seed: uint64(900 + i),
			Engine:    EngineBatch,
			BatchSize: uint64(i % 3 * 4), // 0 (adaptive), 4, 8
		})
	}
	// Scenario specs: the per-segment derived scheduler seeds, the churn
	// RNG, and the regular graph's sampling must all be keyed off the
	// spec alone — worker count and scheduling order must not show up in
	// frozen/converged outcomes, final sizes, or interaction counts.
	specs = append(specs,
		TrialSpec{N: 12, K: 3, Seed: 31, MaxInteractions: 3_000_000,
			Topology: TopologySpec{Kind: TopologyRing}},
		TrialSpec{N: 9, K: 3, Seed: 32, MaxInteractions: 3_000_000,
			Topology: TopologySpec{Kind: TopologyStar}},
		TrialSpec{N: 10, K: 2, Seed: 33, MaxInteractions: 3_000_000,
			Topology: TopologySpec{Kind: TopologyRegular, Degree: 3, GraphSeed: 5}},
		TrialSpec{N: 12, K: 3, Seed: 34, MaxInteractions: 100_000,
			Fairness: FairnessWeak},
		TrialSpec{N: 12, K: 3, Seed: 35, MaxInteractions: 100_000,
			Topology: TopologySpec{Kind: TopologyRing}, Fairness: FairnessWeak},
		TrialSpec{N: 15, K: 3, Seed: 36, MaxInteractions: 3_000_000,
			Churn: ChurnSpec{At: 200, Interval: 300, Events: 2, Joins: 1, Leaves: 2, Crash: true}},
		TrialSpec{N: 12, K: 3, Seed: 37, MaxInteractions: 3_000_000,
			Topology: TopologySpec{Kind: TopologyStar},
			Churn:    ChurnSpec{At: 100, Events: 1, Joins: 2}},
	)
	run := func(workers int) []byte {
		res, err := RunManyCtx(context.Background(), specs, workers, RunOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d produced different results\nserial: %s\ngot:    %s", workers, serial, got)
		}
	}
	// The execution policy (a generous deadline) is not part of trial
	// identity either: same bytes with a non-zero policy.
	res, err := RunManyCtx(context.Background(), specs, 4, RunOptions{TrialTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(res)
	if !bytes.Equal(data, serial) {
		t.Fatal("RunOptions changed trial results")
	}
	// A deadline can fail a trial but never change its result: under a
	// 2ms deadline each spec either fails with DeadlineExceeded or returns
	// the bytes of its run without one. n=1000, k=8 on the agent engine
	// needs far more than 2ms, so the deadline fires at least once.
	fired := 0
	for i, spec := range append(specs, TrialSpec{N: 1000, K: 8, Seed: 7}) {
		res, err := RunTrialCtx(context.Background(), spec, RunOptions{TrialTimeout: 2 * time.Millisecond})
		if errors.Is(err, context.DeadlineExceeded) {
			fired++
			continue
		}
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		plain, err := RunTrial(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(res)
		b, _ := json.Marshal(plain)
		if !bytes.Equal(a, b) {
			t.Fatalf("spec %d: the deadline changed the result\ntimed: %s\nplain: %s", i, a, b)
		}
	}
	if fired == 0 {
		t.Fatal("the 2ms deadline fired for no spec")
	}
}

// A per-trial wall deadline fails the trial with DeadlineExceeded, once,
// and the timeout counter records it.
func TestRunTrialCtxTimeoutCounted(t *testing.T) {
	reg := obs.New("test")
	SetMetrics(reg)
	defer SetMetrics(nil)

	// n=1000, k=8 on the agent engine needs far more than 2ms of wall
	// clock, so the trial deterministically exceeds the deadline.
	spec := TrialSpec{N: 1000, K: 8, Seed: 7}
	_, err := RunTrialCtx(context.Background(), spec, RunOptions{TrialTimeout: 2 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if got := reg.Counter("harness/timeouts").Value(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
	if got := reg.Counter("harness/trials").Value(); got != 1 {
		t.Fatalf("trials counter = %d, want 1", got)
	}
}

// An invalid spec fails with ErrInvalidSpec after one execution, counted
// as an error.
func TestRunTrialCtxInvalidSpecNotRetried(t *testing.T) {
	reg := obs.New("test")
	SetMetrics(reg)
	defer SetMetrics(nil)

	_, err := RunTrialCtx(context.Background(), TrialSpec{N: 2, K: 3, Seed: 1}, RunOptions{})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("got %v, want ErrInvalidSpec", err)
	}
	if trials, errs := reg.Counter("harness/trials").Value(), reg.Counter("harness/errors").Value(); trials != 1 || errs != 1 {
		t.Fatalf("trials counter = %d, errors counter = %d, want 1 and 1", trials, errs)
	}
}

// Batch cancellation is not a trial failure: the canceled counter
// increments, and the context error surfaces unchanged.
func TestRunTrialCtxCanceled(t *testing.T) {
	reg := obs.New("test")
	SetMetrics(reg)
	defer SetMetrics(nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunTrialCtx(ctx, TrialSpec{N: 20, K: 4, Seed: 1}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
	if got := reg.Counter("harness/canceled").Value(); got == 0 {
		t.Fatal("canceled counter not incremented")
	}
}

// RunManyCtx under a canceled context drains without dispatching and
// reports the interruption distinctly from trial errors.
func TestRunManyCtxInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []TrialSpec{{N: 20, K: 4, Seed: 1}, {N: 21, K: 4, Seed: 2}}
	res, err := RunManyCtx(ctx, specs, 2, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want wrapped Canceled", err)
	}
	if len(res) != len(specs) {
		t.Fatalf("result slice len %d, want %d", len(res), len(specs))
	}
}

// A generous timeout changes nothing: same result bytes as no policy at
// all (the deadline is pure policy, invisible in the output).
func TestTrialTimeoutInvisibleWhenUnhit(t *testing.T) {
	spec := TrialSpec{N: 24, K: 4, Seed: 11, Grouping: true}
	plain, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := RunTrialCtx(context.Background(), spec, RunOptions{TrialTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(timed)
	if !bytes.Equal(a, b) {
		t.Fatalf("deadline leaked into result:\n%s\n%s", a, b)
	}
}
