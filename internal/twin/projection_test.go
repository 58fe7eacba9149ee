package twin

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/markov"
)

// TestLumpedProjectionIsExact checks the reduction at the strongest level:
// project every full configuration onto its reduced vector and require
// that stable flags, self-loops, and entire outgoing distributions agree
// edge-for-edge. This is what "exactly lumped" means — any merge that
// altered a single transition probability would show up here before it
// could bias a hitting time. (This is also the test that caught the
// initial/initial'-swap "lumping": rules 9 and 10 emit specifically
// initial, so the swap is not an automorphism.)
func TestLumpedProjectionIsExact(t *testing.T) {
	for _, fx := range []struct{ n, k int }{{6, 3}, {8, 4}, {7, 2}} {
		p := harness.Proto(fx.k)
		ch, err := markov.New(p, fx.n)
		if err != nil {
			t.Fatal(err)
		}
		lch, err := buildLumped(p, fx.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		rvec := make([]int32, vecLen(fx.k))
		proj := make([]int, len(ch.Graph.Nodes))
		for i, node := range ch.Graph.Nodes {
			encodeReduced(p, node.Counts, rvec)
			id, ok := lch.lookup(rvec)
			if !ok {
				t.Fatalf("n=%d k=%d: full node %d (%v) projects to unknown reduced vector %v",
					fx.n, fx.k, i, node.Counts, rvec)
			}
			proj[i] = id
		}
		for i := range ch.Graph.Nodes {
			li := proj[i]
			if ch.Stable[i] != lch.stable[li] {
				t.Errorf("n=%d k=%d: node %d: markov stable=%v, lumped stable=%v",
					fx.n, fx.k, i, ch.Stable[i], lch.stable[li])
			}
			want := make(map[int]float64)
			wantSelf := ch.SelfLoop[i]
			for _, e := range ch.Out[i] {
				if tgt := proj[e.To]; tgt == li {
					wantSelf += e.P
				} else {
					want[tgt] += e.P
				}
			}
			if d := wantSelf - lch.self[li]; d > 1e-12 || d < -1e-12 {
				t.Errorf("n=%d k=%d: node %d: self-loop %g vs %g", fx.n, fx.k, i, wantSelf, lch.self[li])
			}
			got := make(map[int]float64)
			out, P := lch.outOf(li)
			for j, e := range out {
				got[int(e.to)] = P[j]
			}
			if len(got) != len(want) {
				t.Errorf("n=%d k=%d: node %d: %d projected edges vs %d lumped", fx.n, fx.k, i, len(want), len(got))
				continue
			}
			for tgt, wp := range want {
				if gp := got[tgt]; gp-wp > 1e-12 || wp-gp > 1e-12 {
					t.Errorf("n=%d k=%d: node %d: edge to %d: %g vs %g", fx.n, fx.k, i, tgt, wp, gp)
				}
			}
		}
	}
}
