package obs_test

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runWithHooks drives one k-partition run to stability with the given
// hooks attached.
func runWithHooks(t *testing.T, n, k int, seed uint64, hooks ...sim.Hook) sim.Result {
	t.Helper()
	p := core.MustNew(k)
	target, err := p.TargetCounts(n)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.New(p, n)
	res, err := sim.Run(pop, sched.NewRandom(seed),
		sim.NewCountTarget(p.CanonMap(), target), sim.Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("n=%d k=%d seed=%d did not converge", n, k, seed)
	}
	return res
}

func TestMilestonesMarks(t *testing.T) {
	const n, k = 9, 3
	p := core.MustNew(k)
	ms := obs.NewMilestones(obs.Nop(), p.G(k), nil)
	res := runWithHooks(t, n, k, 9, ms)
	marks := ms.Marks()
	if len(marks) != n/k {
		t.Fatalf("recorded %d groupings, want %d", len(marks), n/k)
	}
	var prev uint64
	for i, m := range marks {
		if m < prev || m > res.Interactions {
			t.Fatalf("mark %d = %d out of order (prev %d, total %d)", i, m, prev, res.Interactions)
		}
		prev = m
	}
	var sum uint64
	for _, d := range obs.Deltas(marks, res.Interactions) {
		sum += d
	}
	if sum != res.Interactions {
		t.Fatalf("deltas sum to %d, want %d", sum, res.Interactions)
	}
}

func TestDeltasWithTail(t *testing.T) {
	marks := []uint64{10, 25, 70}
	if got, want := obs.Deltas(marks, 100), []uint64{10, 15, 45, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deltas %v, want %v", got, want)
	}
	// No tail when the last mark IS the total.
	if d := obs.Deltas(marks, 70); len(d) != 3 {
		t.Fatalf("unexpected tail: %v", d)
	}
}

// The metrics and the phase spans report the same milestones as Marks.
func TestMilestonesMetricsAndSpansMatchMarks(t *testing.T) {
	const n, k = 24, 4
	p := core.MustNew(k)
	r := obs.New("kpart")
	tr := span.NewTrace("t")
	root := tr.Root("engine/agent")
	ms := obs.NewMilestones(r, p.G(k), root)
	runWithHooks(t, n, k, 3, ms)
	root.End()
	marks := ms.Marks()
	if len(marks) != n/k {
		t.Fatalf("%d groupings recorded, want %d", len(marks), n/k)
	}
	snap := r.Snapshot()
	if m, _ := snap.Find("phase/grouping_cost"); m.Count != uint64(n/k) {
		t.Fatalf("grouping_cost count = %d, want %d", m.Count, n/k)
	}
	// Sum of the per-grouping deltas is the last absolute mark.
	if m, _ := snap.Find("phase/grouping_cost"); m.Sum != marks[len(marks)-1] {
		t.Fatalf("delta sum %d != last mark %d", m.Sum, marks[len(marks)-1])
	}
	var sum uint64
	for _, m := range marks {
		sum += m
	}
	if m, _ := snap.Find("phase/interactions_to_grouping"); m.Count != uint64(n/k) || m.Sum != sum {
		t.Fatalf("interactions_to_grouping count %d sum %d, want %d and %d", m.Count, m.Sum, n/k, sum)
	}
	if m, _ := snap.Find("phase/groupings_complete"); m.Gauge != int64(n/k) {
		t.Fatalf("groupings_complete = %d, want %d", m.Gauge, n/k)
	}
	var phases []span.Span
	for _, s := range tr.Spans() {
		if s.Name == "phase/grouping" {
			phases = append(phases, s)
		}
	}
	if len(phases) != len(marks) {
		t.Fatalf("%d phase spans for %d marks", len(phases), len(marks))
	}
	var prev uint64
	for i, s := range phases {
		want := []span.Attr{{Key: "index", Value: strconv.Itoa(i + 1)}}
		if s.Parent != root.ID() || s.StartSeq != prev || s.EndSeq != marks[i] || !reflect.DeepEqual(s.Attrs, want) {
			t.Fatalf("phase span %d = %+v, want parent %s, seq [%d,%d], attrs %v", i, s, root.ID(), prev, marks[i], want)
		}
		prev = marks[i]
	}
}

func TestMilestonesReinit(t *testing.T) {
	// An observer reused across runs must restart its marks but keep
	// accumulating into the histograms.
	const n, k = 12, 3
	p := core.MustNew(k)
	r := obs.New("kpart")
	ms := obs.NewMilestones(r, p.G(k), nil)
	runWithHooks(t, n, k, 1, ms)
	first := len(ms.Marks())
	runWithHooks(t, n, k, 2, ms)
	if len(ms.Marks()) != n/k {
		t.Fatalf("second run recorded %d marks, want %d", len(ms.Marks()), n/k)
	}
	snap := r.Snapshot()
	if m, _ := snap.Find("phase/grouping_cost"); m.Count != uint64(first+n/k) {
		t.Fatalf("histogram count = %d, want accumulated %d", m.Count, first+n/k)
	}
}

func TestHooksDisabledRegistryStillRuns(t *testing.T) {
	// Wiring hooks against the Nop registry must not affect results.
	const n, k = 15, 3
	p := core.MustNew(k)
	ms := obs.NewMilestones(obs.Nop(), p.G(k), nil)
	var buf bytes.Buffer
	prog := &obs.Progress{W: &buf, Every: 1 << 10}
	withHooks := runWithHooks(t, n, k, 9, ms, prog)
	bare := runWithHooks(t, n, k, 9)
	if withHooks.Interactions != bare.Interactions || withHooks.Productive != bare.Productive {
		t.Fatalf("hooks changed the run: %+v vs %+v", withHooks, bare)
	}
}
