package countsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/protocol"
	"repro/internal/protocols/bipartition"
	"repro/internal/protocols/interval"
	"repro/internal/rng"
)

func TestNewValidation(t *testing.T) {
	p := core.MustNew(3)
	if _, err := New(p, 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := FromCounts(p, []int{1, 2}, 1); err == nil {
		t.Fatal("short counts accepted")
	}
	if _, err := FromCounts(p, []int{-1, 3, 0, 0, 0, 0, 0}, 1); err == nil {
		t.Fatal("negative count accepted")
	}
}

// The incremental null-weight bookkeeping must match the O(S²) audit after
// every single step, across protocols with different null structure
// (symmetric k-partition, asymmetric interval splitting).
func TestNullWeightAudit(t *testing.T) {
	protos := []protocol.Protocol{core.MustNew(4), interval.MustNew(5), bipartition.New()}
	for _, p := range protos {
		s, err := New(p, 30, 7)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2000; step++ {
			if want := s.auditNullWeight(); want != s.NullWeight() {
				t.Fatalf("%s step %d: incremental nullW %d, audit %d", p.Name(), step, s.NullWeight(), want)
			}
			total := 0
			for _, c := range s.CountsView() {
				if c < 0 {
					t.Fatalf("%s step %d: negative count", p.Name(), step)
				}
				total += c
			}
			if total != 30 {
				t.Fatalf("%s step %d: population %d", p.Name(), step, total)
			}
			if _, _, err := s.Step(); err != nil {
				if errors.Is(err, ErrDead) {
					break
				}
				t.Fatal(err)
			}
		}
	}
}

// move must leave the counts, every row and column sum and the null
// weight exactly where a from-scratch recompute puts them: for bulk moves
// of either sign, as the batched engine makes them, and for the no-op
// moves x == y and t == 0. The protocols are the paper's at k = 2…12 and
// every other one the repo builds; on a protocol with twins, half the
// moves go between twins, which move only the counts.
func TestMoveKeepsSumsExact(t *testing.T) {
	protos := allProtocols()
	prop := func(kRaw uint8, raw [34]uint16, moves [24][3]uint16) bool {
		p := protos[int(kRaw)%len(protos)]
		S := p.NumStates()
		counts := make([]int, S)
		for i := range counts {
			counts[i] = int(raw[i])
		}
		counts[0] += 2
		s, err := FromCounts(p, counts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var twins [][2]int
		for x := 0; x < S; x++ {
			for y := 0; y < S; y++ {
				if x != y && s.twin[x] == s.twin[y] {
					twins = append(twins, [2]int{x, y})
				}
			}
		}
		for i, m := range moves {
			x, y := int(m[0])%S, int(m[1])%S
			if len(twins) > 0 && m[1]&1 == 0 {
				pair := twins[int(m[0])%len(twins)]
				x, y = pair[0], pair[1]
			}
			frac := int64(m[2] >> 3) // 0..8191
			var d int64
			switch m[2] % 8 {
			case 0:
				y, d = x, frac+1
			case 1:
			case 2, 3, 4:
				d = int64(counts[x]) * frac / 8191
			default:
				d = -int64(counts[y]) * frac / 8191
			}
			s.move(x, y, d)
			if x != y {
				counts[x] -= int(d)
				counts[y] += int(d)
			}
			for a := 0; a < S; a++ {
				var row, col int64
				for b := 0; b < S; b++ {
					row += s.null(a, b) * int64(counts[b])
					col += s.null(b, a) * int64(counts[b])
				}
				if s.counts[a] != counts[a] || s.rowSum[a] != row || s.colSum[a] != col {
					t.Logf("%s move %d (%d→%d, t=%d): state %d has count %d, rowSum %d, colSum %d; want %d, %d, %d",
						p.Name(), i, x, y, d, a, s.counts[a], s.rowSum[a], s.colSum[a], counts[a], row, col)
					return false
				}
			}
			if want := s.auditNullWeight(); s.nullW != want {
				t.Logf("%s move %d (%d→%d, t=%d): nullW %d, recomputed %d", p.Name(), i, x, y, d, s.nullW, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every applied transition must be a real productive transition of the
// protocol, applied correctly to the counts.
func TestStepsAreLegalTransitions(t *testing.T) {
	p := core.MustNew(4)
	s, err := New(p, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Counts()
	for i := 0; i < 3000; i++ {
		from, to, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := p.Delta(from.P, from.Q)
		if want != to {
			t.Fatalf("applied (%d,%d)->(%d,%d), delta says (%d,%d)",
				from.P, from.Q, to.P, to.Q, want.P, want.Q)
		}
		if from == to {
			t.Fatal("null transition returned by Step")
		}
		cur := s.Counts()
		prev[from.P]--
		prev[from.Q]--
		prev[to.P]++
		prev[to.Q]++
		for st := range cur {
			if cur[st] != prev[st] {
				t.Fatalf("step %d: counts diverged at state %d", i, st)
			}
		}
		prev = cur
	}
}

// Lemma 1 must hold along count-level executions too.
func TestInvariantAlongCountExecutions(t *testing.T) {
	p := core.MustNew(5)
	s, err := New(p, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariant(s.CountsView()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if p.IsStable(s.CountsView()) {
			return
		}
	}
	t.Fatal("never stabilized")
}

// THE equivalence check: countsim's interaction counts must have the same
// distribution as the agent-level engine's. Compare the mean to the EXACT
// Markov expectation (4 standard errors over many cheap trials).
func TestMatchesExactExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-trial distribution check; skipped in -short runs")
	}
	cases := []struct{ n, k int }{{5, 2}, {6, 3}, {8, 4}}
	for _, cse := range cases {
		p := core.MustNew(cse.k)
		exact, err := markov.ExpectedStabilization(p, cse.n)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 40000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			s, err := New(p, cse.n, rng.StreamSeed(0xc0de, uint64(cse.n), uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			ok, err := s.RunUntil(p.IsStable, 10_000_000)
			if err != nil || !ok {
				t.Fatalf("trial %d: %v ok=%v", i, err, ok)
			}
			x := float64(s.Interactions())
			sum += x
			sumsq += x * x
		}
		mean := sum / trials
		se := math.Sqrt(((sumsq - sum*sum/trials) / (trials - 1)) / trials)
		if diff := math.Abs(mean - exact); diff > 4*se+1e-9 {
			t.Errorf("n=%d k=%d: countsim mean %.3f vs exact %.3f (diff %.3f > 4·SE %.3f)",
				cse.n, cse.k, mean, exact, diff, 4*se)
		}
	}
}

// NOTE: the countsim-vs-agent-engine comparison at sizes the Markov chain
// cannot reach lives in the root integration suite (TestThreeEnginesAgree)
// — importing internal/harness here would create an import cycle now that
// the harness can run trials on this engine.

// countsim.IsStable detection for the paper's protocol: the stable
// configuration with a leftover free agent keeps bar-flipping, which ARE
// productive steps — RunUntil must still stop because IsStable
// canonicalizes the two I-states.
func TestStableWithRemainderOne(t *testing.T) {
	p := core.MustNew(3)
	s, err := New(p, 10, 3) // r = 1
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.RunUntil(p.IsStable, 10_000_000)
	if err != nil || !ok {
		t.Fatalf("%v %v", err, ok)
	}
	sizes := p.GroupSizesFromCounts(s.CountsView())
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("group sizes %v", sizes)
	}
}

// Quiescent configurations: Step returns ErrDead, RunUntil returns pred's
// verdict.
func TestDeadConfiguration(t *testing.T) {
	p := interval.MustNew(4)
	counts := make([]int, p.NumStates())
	counts[p.Interval(1, 1)] = 3
	counts[p.Interval(2, 2)] = 3
	s, err := FromCounts(p, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(); !errors.Is(err, ErrDead) {
		t.Fatalf("got %v, want ErrDead", err)
	}
	ok, err := s.RunUntil(func([]int) bool { return false }, 100)
	if err != nil || ok {
		t.Fatalf("RunUntil on dead config: %v %v", err, ok)
	}
}

// Null-run skipping must actually skip: on a configuration dominated by
// null pairs, interactions must advance much faster than productive steps.
func TestNullSkipping(t *testing.T) {
	p := core.MustNew(3)
	counts := make([]int, p.NumStates())
	// 997 settled agents (null amongst themselves), one m2 + its g1, one
	// free agent: most encounters are null.
	counts[p.G(1)] = 333
	counts[p.G(2)] = 332
	counts[p.G(3)] = 332
	counts[p.Initial()] = 3
	s, err := FromCounts(p, counts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Interactions() < 10*s.Productive() {
		t.Fatalf("little skipping: %d interactions for %d productive steps",
			s.Interactions(), s.Productive())
	}
}

// Large-population smoke test: a million agents, k = 2, far beyond what
// an exhaustive structure could handle, in O(|Q|²) memory.
func TestMillionAgents(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := bipartition.New()
	const n = 1_000_000
	s, err := New(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	stable := func(c []int) bool {
		// All agents assigned except at most one free.
		return c[bipartition.Initial]+c[bipartition.InitialBar] <= n%2
	}
	ok, err := s.RunUntil(stable, 1<<62)
	if err != nil || !ok {
		t.Fatalf("%v %v", err, ok)
	}
	if r := s.CountsView()[bipartition.R]; r != n/2 {
		t.Fatalf("group r has %d agents", r)
	}
	t.Logf("n=1e6 bipartition: %d interactions, %d productive", s.Interactions(), s.Productive())
}

func BenchmarkCountStep(b *testing.B) {
	// n = 961 leaves a remainder agent at stability whose parity keeps
	// flipping, so a productive step always exists no matter how large
	// b.N grows (n = 960 would eventually quiesce and kill the bench).
	p := core.MustNew(8)
	s, err := New(p, 961, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// Tail speedup on the Figure 6 shape: time-to-stability via countsim
// versus the agent engine; the custom metric shows the skip factor.
func BenchmarkTailSkipFactor(b *testing.B) {
	p := core.MustNew(8)
	var interactions, productive uint64
	for i := 0; i < b.N; i++ {
		s, err := New(p, 960, rng.StreamSeed(4, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		ok, err := s.RunUntil(p.IsStable, 1<<62)
		if err != nil || !ok {
			b.Fatal(err)
		}
		interactions += s.Interactions()
		productive += s.Productive()
	}
	b.ReportMetric(float64(interactions)/float64(b.N), "interactions/run")
	b.ReportMetric(float64(interactions)/float64(productive), "skip-factor")
}
