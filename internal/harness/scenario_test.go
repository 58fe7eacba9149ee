package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// Ring topology under uniform edge scheduling: the protocol USUALLY
// freezes short of uniformity (a committed segment strands m-heads on
// opposite arcs — the star finding generalizes to every sparse graph we
// field), and occasionally gets lucky and partitions uniformly. Both
// outcomes must terminate promptly via freeze detection rather than
// burning the cap, and be flagged consistently. At n=12, k=3 seed 4
// converges and seeds 1–3 freeze (deterministic per seed).
func TestScenarioRingFreezesOrConverges(t *testing.T) {
	frozen, converged := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		spec := TrialSpec{
			N: 12, K: 3, Seed: seed, MaxInteractions: 5_000_000,
			Topology: TopologySpec{Kind: TopologyRing},
		}
		if err := ValidateSpec(spec); err != nil {
			t.Fatal(err)
		}
		res, err := RunTrial(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Interactions == spec.MaxInteractions {
			t.Errorf("seed %d: ring run burned the whole cap; freeze detection should have stopped it", seed)
		}
		switch {
		case res.Converged && !res.Frozen && res.Spread == 0:
			converged++
		case res.Frozen && !res.Converged && res.Spread > 0:
			frozen++
		default:
			t.Errorf("seed %d: inconsistent outcome: %+v", seed, res)
		}
	}
	if frozen == 0 || converged == 0 {
		t.Fatalf("ring outcomes not mixed as expected: %d frozen, %d converged in 6 seeds", frozen, converged)
	}
}

// The star-graph freeze, promoted from the topology package's survey to
// a first-class harness outcome: the run STOPS (group-frozen detected by
// the orbit-closure condition) with Converged=false, Frozen=true — a
// failing-convergence scenario, not a burned interaction cap and not an
// error. Not every seed freezes (some stars get lucky), so scan a few
// and require at least one frozen outcome; every stopped run must be
// flagged consistently.
func TestScenarioStarFreezeSurfaces(t *testing.T) {
	frozen := 0
	for seed := uint64(1); seed <= 6; seed++ {
		spec := TrialSpec{
			N: 9, K: 3, Seed: seed, MaxInteractions: 3_000_000,
			Topology: TopologySpec{Kind: TopologyStar},
		}
		res, err := RunTrial(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged && res.Frozen {
			t.Fatalf("seed %d: Converged and Frozen are mutually exclusive: %+v", seed, res)
		}
		if res.Frozen {
			frozen++
			if res.Spread == 0 {
				t.Errorf("seed %d: frozen with spread 0 — that would be a uniform partition, not a freeze", seed)
			}
		}
	}
	if frozen == 0 {
		t.Fatal("no star run froze in 6 seeds; the freeze detection seam is not firing")
	}
}

// Weak fairness through the harness: the n=12 stall from the sched
// tests surfaces as Converged=false at the interaction cap, with no
// Frozen flag — the configuration keeps changing, it just never reaches
// the target. The cap makes the trial finite by construction, which is
// why ValidateSpec requires it.
func TestScenarioWeakFairnessStalls(t *testing.T) {
	spec := TrialSpec{
		N: 12, K: 3, Seed: 5, MaxInteractions: 500_000,
		Fairness: FairnessWeak,
	}
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("weak-fairness run converged at n=12; the adversary should stall it: %+v", res)
	}
	if res.Frozen {
		t.Fatalf("weak-fairness stall misreported as a topology freeze: %+v", res)
	}
	if res.Interactions != spec.MaxInteractions {
		t.Fatalf("stalled run stopped at %d interactions, want the cap %d", res.Interactions, spec.MaxInteractions)
	}
}

// Crash churn AFTER stabilization is unrecoverable: by interaction 200
// the n=15 population has fully committed (5,5,5); removing committed
// agents then leaves a dead configuration — no rule can ever rebalance
// the groups, because the protocol is not self-stabilizing. The harness
// must surface that as Frozen=true promptly (freeze detection is armed
// on churned complete-graph runs exactly for this) instead of burning
// the 5M-interaction cap on null encounters.
func TestScenarioCrashChurnKillsRecovery(t *testing.T) {
	spec := TrialSpec{
		N: 15, K: 3, Seed: 3, MaxInteractions: 5_000_000,
		Churn: ChurnSpec{At: 200, Interval: 200, Events: 2, Leaves: 1, Crash: true},
	}
	if err := ValidateSpec(spec); err != nil {
		t.Fatal(err)
	}
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN != 13 {
		t.Fatalf("FinalN = %d, want 13 (15 − 2 crashes)", res.FinalN)
	}
	if res.Converged || !res.Frozen {
		t.Fatalf("crashing committed agents should leave a dead non-uniform configuration: %+v", res)
	}
	if res.Interactions < 400 {
		t.Fatalf("interaction clock lost across churn: %d total interactions with churn events at 200 and 400", res.Interactions)
	}
	if res.Interactions == spec.MaxInteractions {
		t.Fatalf("dead configuration burned the whole cap; freeze detection should have fired: %+v", res)
	}
}

// Graceful leaves BEFORE stabilization are harmless: at interaction 20
// most agents are still free, the departing ones are drawn from the
// free pool, and the survivors settle into the smaller population's
// uniform partition.
func TestScenarioGracefulChurnConverges(t *testing.T) {
	spec := TrialSpec{
		N: 15, K: 3, Seed: 3, MaxInteractions: 5_000_000,
		Churn: ChurnSpec{At: 20, Events: 1, Leaves: 3},
	}
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN != 12 {
		t.Fatalf("FinalN = %d, want 12", res.FinalN)
	}
	if !res.Converged {
		t.Fatalf("graceful early churn should still converge: %+v", res)
	}
}

// Churn with joins: the population grows mid-run and still settles.
func TestScenarioChurnJoins(t *testing.T) {
	spec := TrialSpec{
		N: 9, K: 3, Seed: 8, MaxInteractions: 5_000_000,
		Churn: ChurnSpec{At: 500, Events: 1, Joins: 3},
	}
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN != 12 {
		t.Fatalf("FinalN = %d, want 12", res.FinalN)
	}
	if !res.Converged {
		t.Fatalf("join run did not converge: %+v", res)
	}
}

// Scenario trials are pure functions of their spec: byte-for-byte equal
// results across repeated runs, including through the churn RNG and the
// per-segment derived scheduler seeds.
func TestScenarioDeterministic(t *testing.T) {
	specs := []TrialSpec{
		{N: 12, K: 3, Seed: 21, MaxInteractions: 5_000_000, Topology: TopologySpec{Kind: TopologyRing}},
		{N: 12, K: 3, Seed: 21, MaxInteractions: 200_000, Fairness: FairnessWeak},
		{N: 12, K: 4, Seed: 21, MaxInteractions: 5_000_000,
			Topology: TopologySpec{Kind: TopologyRing},
			Churn:    ChurnSpec{At: 300, Interval: 300, Events: 2, Joins: 1, Leaves: 2, Crash: true}},
		{N: 10, K: 2, Seed: 4, MaxInteractions: 2_000_000, Topology: TopologySpec{Kind: TopologyGrid, Rows: 2, Cols: 5}},
		{N: 10, K: 2, Seed: 4, MaxInteractions: 2_000_000, Topology: TopologySpec{Kind: TopologyRegular, Degree: 3, GraphSeed: 9}},
	}
	for i, spec := range specs {
		a, err := RunTrial(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		b, err := RunTrial(spec)
		if err != nil {
			t.Fatalf("spec %d rerun: %v", i, err)
		}
		if a.Interactions != b.Interactions || a.Productive != b.Productive ||
			a.Converged != b.Converged || a.Frozen != b.Frozen ||
			a.FinalN != b.FinalN || a.Spread != b.Spread {
			t.Errorf("spec %d not deterministic:\n  %+v\n  %+v", i, a, b)
		}
	}
}

// Invalid scenario combinations must be rejected by ValidateSpec (the
// admission path) AND by RunTrialCtx (the execution path) with
// ErrInvalidSpec, so the serving layer 400s them before enqueueing and
// no worker ever runs them. The 2⁶²-event schedules are checked without
// walking them.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		spec TrialSpec
		want string
	}{
		{"count engine on ring", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Engine: EngineCount, Topology: TopologySpec{Kind: TopologyRing}}, "agent engine"},
		{"batch engine under churn", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Engine: EngineBatch, Churn: ChurnSpec{At: 10, Events: 1, Joins: 1}}, "agent engine"},
		{"no cap", TrialSpec{N: 12, K: 3, Fairness: FairnessWeak}, "MaxInteractions"},
		{"churn at=0", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Churn: ChurnSpec{Events: 1, Joins: 1}}, "at > 0"},
		{"multi-event churn without interval", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Churn: ChurnSpec{At: 10, Events: 2, Joins: 1}}, "every > 0"},
		{"churn on grid", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Topology: TopologySpec{Kind: TopologyGrid, Rows: 3, Cols: 4},
			Churn:    ChurnSpec{At: 10, Events: 1, Joins: 1}}, "churn composes only"},
		{"grouping under churn", TrialSpec{N: 12, K: 3, MaxInteractions: 1000, Grouping: true,
			Churn: ChurnSpec{At: 10, Events: 1, Joins: 1}}, "grouping"},
		{"churn drains population", TrialSpec{N: 6, K: 2, MaxInteractions: 1000,
			Churn: ChurnSpec{At: 10, Interval: 10, Events: 3, Leaves: 2}}, "stable signature"},
		{"grid shape mismatch", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Topology: TopologySpec{Kind: TopologyGrid, Rows: 2, Cols: 5}}, "grid"},
		{"regular parity", TrialSpec{N: 9, K: 3, MaxInteractions: 1000,
			Topology: TopologySpec{Kind: TopologyRegular, Degree: 3}}, "regular"},
		{"churn fields without churn", TrialSpec{N: 12, K: 3, MaxInteractions: 1000,
			Churn: ChurnSpec{At: 10, Events: 1}}, "without join or leave"},
		{"churn drains population over 2⁶² events", TrialSpec{N: 30, K: 3, MaxInteractions: 1000,
			Churn: ChurnSpec{At: 1, Interval: 1, Events: 1 << 62, Joins: 1, Leaves: 2}},
			"after churn event 28 the population of 2 has no stable signature"},
		{"churn overflows population", TrialSpec{N: 30, K: 3, MaxInteractions: 1000,
			Churn: ChurnSpec{At: 1, Interval: 1, Events: 1 << 62, Joins: 3, Leaves: 1}}, "overflow"},
	}
	for _, tc := range cases {
		err := ValidateSpec(tc.spec)
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: ValidateSpec = %v, want ErrInvalidSpec", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, rerr := RunTrialCtx(context.Background(), tc.spec, RunOptions{}); !errors.Is(rerr, ErrInvalidSpec) {
			t.Errorf("%s: RunTrialCtx = %v, want ErrInvalidSpec", tc.name, rerr)
		}
	}
}

// walkChurn is the reference for churnErr: it walks the population
// through every churn event, checking the leaves, the target signature
// and the graph at each size.
func walkChurn(spec TrialSpec) error {
	c, n := spec.Churn, spec.N
	for ev := 1; ev <= c.Events; ev++ {
		if c.Leaves >= n {
			return fmt.Errorf("%w: churn event %d removes %d agents from a population of %d",
				ErrInvalidSpec, ev, c.Leaves, n)
		}
		n += c.Joins - c.Leaves
		if _, err := Proto(spec.K).TargetCounts(n); err != nil {
			return fmt.Errorf("%w: after churn event %d the population of %d has no stable signature: %v",
				ErrInvalidSpec, ev, n, err)
		}
		if _, err := spec.Topology.Build(n); err != nil {
			return fmt.Errorf("%w: topology %s at population %d: %v", ErrInvalidSpec, spec.Topology, n, err)
		}
	}
	return nil
}

// The closed-form churn check makes the walk's decision, with the walk's
// error text, on every small schedule of a grid.
func TestChurnCheckMatchesWalk(t *testing.T) {
	checked, rejected := 0, 0
	for _, topo := range []TopologyKind{TopologyComplete, TopologyRing, TopologyStar} {
		for n := 3; n <= 20; n++ {
			for events := 1; events <= 8; events++ {
				for joins := 0; joins <= 3; joins++ {
					for leaves := 0; leaves <= 5; leaves++ {
						if joins == 0 && leaves == 0 {
							continue
						}
						spec := TrialSpec{N: n, K: 2 + n%3, MaxInteractions: 1000,
							Topology: TopologySpec{Kind: topo},
							Churn:    ChurnSpec{At: 10, Interval: 10, Events: events, Joins: joins, Leaves: leaves}}
						got, want := ValidateSpec(spec), walkChurn(spec)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s n=%d churn %s: closed form %v, walk %v", spec.Topology, n, spec.Churn, got, want)
						}
						checked++
						if want != nil {
							rejected++
						}
					}
				}
			}
		}
	}
	if rejected == 0 || rejected == checked {
		t.Fatalf("%d of %d schedules rejected; the grid must hold both outcomes", rejected, checked)
	}
}

// A 2⁶²-event schedule whose population stays level is admitted, and its
// event times are computed as the run reaches them: a run capped at 10⁵
// interactions takes its 99 events and ends in the final segment.
func TestHugeChurnScheduleRuns(t *testing.T) {
	spec := TrialSpec{N: 30, K: 3, Seed: 1, MaxInteractions: 100_000,
		Churn: ChurnSpec{At: 1000, Interval: 1000, Events: 1 << 62, Joins: 1, Leaves: 1}}
	if err := ValidateSpec(spec); err != nil {
		t.Fatal(err)
	}
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN != 30 || res.Interactions < 99_000 || res.Interactions > spec.MaxInteractions {
		t.Fatalf("ended at %d interactions with %d agents, want 99000..100000 with 30", res.Interactions, res.FinalN)
	}
	// An event time that wraps past 2⁶⁴ is never reached.
	c := ChurnSpec{At: 1<<63 - 1, Interval: 1<<63 - 1, Events: 3, Joins: 1}
	if at, ok := c.eventTime(1, math.MaxUint64); !ok || at != 1<<64-2 {
		t.Fatalf("event 1 at %d (reached %v), want %d", at, ok, uint64(1<<64-2))
	}
	if at, ok := c.eventTime(2, math.MaxUint64); ok {
		t.Fatalf("event 2 wrapped to %d", at)
	}
}

// Scenario strings round-trip through their parsers — the CLI flags and
// the serve API's JSON fields both lean on this.
func TestScenarioStringRoundTrips(t *testing.T) {
	topos := []TopologySpec{
		{},
		{Kind: TopologyRing},
		{Kind: TopologyStar},
		{Kind: TopologyGrid, Rows: 3, Cols: 4},
		{Kind: TopologyRegular, Degree: 4},
		{Kind: TopologyRegular, Degree: 4, GraphSeed: 77},
	}
	for _, want := range topos {
		got, err := ParseTopology(want.String())
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", want.String(), err)
		} else if got != want {
			t.Errorf("ParseTopology(%q) = %+v, want %+v", want.String(), got, want)
		}
	}
	churns := []ChurnSpec{
		{},
		{At: 100, Events: 1, Joins: 2},
		{At: 100, Interval: 50, Events: 3, Joins: 1, Leaves: 2, Crash: true},
	}
	for _, want := range churns {
		got, err := ParseChurn(want.String())
		if err != nil {
			t.Errorf("ParseChurn(%q): %v", want.String(), err)
		} else if got != want {
			t.Errorf("ParseChurn(%q) = %+v, want %+v", want.String(), got, want)
		}
	}
	for _, f := range []Fairness{FairnessUniform, FairnessWeak} {
		got, err := ParseFairness(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFairness(%q) = %v, %v", f.String(), got, err)
		}
	}
	for _, bad := range []string{"torus", "grid:x", "grid:0x4", "regular:", "regular:3@x"} {
		if _, err := ParseTopology(bad); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("ParseTopology(%q) = %v, want ErrInvalidSpec", bad, err)
		}
	}
	for _, bad := range []string{"at", "at=x", "bogus=3"} {
		if _, err := ParseChurn(bad); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("ParseChurn(%q) = %v, want ErrInvalidSpec", bad, err)
		}
	}
	if _, err := ParseFairness("strong"); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("ParseFairness(strong) = %v, want ErrInvalidSpec", err)
	}
}
