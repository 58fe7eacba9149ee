package countsim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/protocols/bipartition"
	"repro/internal/protocols/classic"
	"repro/internal/protocols/composed"
	"repro/internal/protocols/interval"
	"repro/internal/protocols/rpartition"
	"repro/internal/rng"
)

// allProtocols lists every protocol the repo builds: the paper's at k =
// 2…12, then the bipartition, classic, composed, interval and r-partition
// protocols.
func allProtocols() []protocol.Protocol {
	var ps []protocol.Protocol
	for k := 2; k <= 12; k++ {
		ps = append(ps, core.MustNew(k))
	}
	return append(ps,
		bipartition.New(), bipartition.NewAsymmetric3(),
		classic.NewLeaderElection(), classic.NewApproxMajority(), classic.NewRumor(),
		composed.MustNew(4), composed.MustNew(8),
		interval.MustNew(4), rpartition.MustNew([]int{1, 2, 3}))
}

// bruteTwins returns, for each of S states x, the least y with same(x, y):
// twin ids by comparing every pair.
func bruteTwins(S int, same func(x, y int) bool) []protocol.State {
	ids := make([]protocol.State, S)
	for x := range ids {
		for y := 0; y <= x; y++ {
			if same(x, y) {
				ids[x] = protocol.State(y)
				break
			}
		}
	}
	return ids
}

// sameLines reports whether states x and y agree on every cell of their
// rows and columns in the S×S table cells.
func sameLines[T comparable](cells []T, S, x, y int) bool {
	for a := 0; a < S; a++ {
		if cells[a*S+x] != cells[a*S+y] || cells[x*S+a] != cells[y*S+a] {
			return false
		}
	}
	return true
}

// engineTwins returns a batch engine on p with its lines built, so both
// its Sim's null twins and its class twins are set.
func engineTwins(t *testing.T, p protocol.Protocol) *Batch {
	t.Helper()
	b, err := NewBatch(p, 10, 1, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.buildLines()
	return b
}

// The bucketed twin ids equal an O(S³) comparison of every pair of states:
// null twins agree on every null cell of their rows and columns, class
// twins on every cell's class (null, flip or progress).
func TestTwinIDsMatchBruteForce(t *testing.T) {
	for _, p := range allProtocols() {
		b := engineTwins(t, p)
		s := b.sim
		null := bruteTwins(s.S, func(x, y int) bool { return sameLines(s.nullPair, s.S, x, y) })
		if !slices.Equal(s.twin, null) {
			t.Errorf("%s: null twins %v, pairwise %v", p.Name(), s.twin, null)
		}
		class := bruteTwins(s.S, func(x, y int) bool { return sameLines(b.cellClass, s.S, x, y) })
		if !slices.Equal(b.classTwin, class) {
			t.Errorf("%s: class twins %v, pairwise %v", p.Name(), b.classTwin, class)
		}
	}
}

// Algorithm 1 at k = 8 has three twin groups, the same for null and class
// twins; every other state is alone. g1…g6 each meet their own d_i (rules
// 9 and 10), and each d_i meets the free states (rule 3) and g_i only.
func TestCoreK8Twins(t *testing.T) {
	p := core.MustNew(8)
	groups := []struct {
		why     string
		members []protocol.State
	}{
		{"both free states meet every g and d (rules 3, 4), each other and themselves (rules 1, 2, 5) and every m (rules 6, 7)",
			[]protocol.State{p.Initial(), p.InitialBar()}},
		{"g7 and g8 meet only the free states (rule 4): no d_i pairs with them",
			[]protocol.State{p.G(7), p.G(8)}},
		{"every m meets both free states (rules 6, 7) and every m (rule 8)",
			[]protocol.State{p.M(2), p.M(3), p.M(4), p.M(5), p.M(6), p.M(7)}},
	}
	b := engineTwins(t, p)
	want := make([]protocol.State, p.NumStates())
	for x := range want {
		want[x] = protocol.State(x)
	}
	for _, g := range groups {
		for _, x := range g.members {
			want[x] = g.members[0]
		}
	}
	for _, ids := range []struct {
		kind string
		got  []protocol.State
	}{{"null", b.sim.twin}, {"class", b.classTwin}} {
		for _, g := range groups {
			for _, x := range g.members {
				if ids.got[x] != g.members[0] {
					t.Errorf("%s twin of %s is %s, want %s: %s", ids.kind, p.StateName(x),
						p.StateName(ids.got[x]), p.StateName(g.members[0]), g.why)
				}
			}
		}
		if !slices.Equal(ids.got, want) {
			t.Errorf("%s twins %v, want %v", ids.kind, ids.got, want)
		}
	}
}

// Two states that differ in one null cell are not twins. x and y toggle
// into each other on meeting z, so they are twins; one ordered rule that
// makes a single cell of y's column, or of y's row, non-null separates
// them, as null twins and as class twins.
func TestNearTwinsAreNotTwins(t *testing.T) {
	for _, c := range []struct {
		name string
		// extra adds the one rule that separates x from y, if any.
		extra func(b *protocol.Builder, y, z, w protocol.State)
		twins bool
	}{
		{"twins", func(*protocol.Builder, protocol.State, protocol.State, protocol.State) {}, true},
		{"column", func(b *protocol.Builder, y, z, w protocol.State) { b.AddOrderedRule(w, y, w, z) }, false},
		{"row", func(b *protocol.Builder, y, z, w protocol.State) { b.AddOrderedRule(y, w, z, w) }, false},
	} {
		bld := protocol.NewBuilder("near-twins-"+c.name, false)
		x := bld.AddState("x", 1)
		y := bld.AddState("y", 1)
		z := bld.AddState("z", 2)
		w := bld.AddState("w", 2)
		bld.SetInitial(x)
		bld.AddRule(x, z, y, z)
		bld.AddRule(y, z, x, z)
		c.extra(bld, y, z, w)
		b := engineTwins(t, bld.MustBuild())
		if got := b.sim.twin[x] == b.sim.twin[y]; got != c.twins {
			t.Errorf("%s: x and y null twins %v, want %v", c.name, got, c.twins)
		}
		if got := b.classTwin[x] == b.classTwin[y]; got != c.twins {
			t.Errorf("%s: x and y class twins %v, want %v", c.name, got, c.twins)
		}
	}
}

// A productive count-engine step allocates nothing at the Figure 6 point.
func TestCountStepAllocs(t *testing.T) {
	s, err := New(core.MustNew(8), 960, rng.StreamSeed(1, 0xf16, 0))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Sim.Step allocates %v times per call, want 0", allocs)
	}
}
