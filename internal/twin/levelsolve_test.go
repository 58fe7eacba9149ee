package twin

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/harness"
)

// denseSolve is Gaussian elimination with partial pivoting, in place:
// the level solver's reference.
func denseSolve(A [][]float64, b []float64) ([]float64, error) {
	m := len(A)
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if A[piv][col] == 0 {
			return nil, fmt.Errorf("twin: singular level system at column %d", col)
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / A[col][col]
		for r := col + 1; r < m; r++ {
			f := A[r][col] * inv
			if f == 0 {
				continue
			}
			A[r][col] = 0
			for c := col + 1; c < m; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := m - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < m; c++ {
			sum -= A[r][c] * b[c]
		}
		b[r] = sum / A[r][r]
	}
	return b, nil
}

// levelMatrix assembles the level system over trans densely, in the
// given orientation.
func levelMatrix(ch *lchain, trans []int, transpose bool) [][]float64 {
	m := len(trans)
	local := make(map[int]int, m)
	for li, id := range trans {
		local[id] = li
	}
	A := make([][]float64, m)
	for li, id := range trans {
		A[li] = make([]float64, m)
		A[li][li] = ch.outMass[id]
	}
	for li, id := range trans {
		for _, e := range ch.outOf(id) {
			if lj, ok := local[e.To]; ok {
				if transpose {
					A[lj][li] -= e.P
				} else {
					A[li][lj] -= e.P
				}
			}
		}
	}
	return A
}

// refinedSolve solves A·x = b by denseSolve and three rounds of
// iterative refinement whose residuals are accumulated in double-double
// arithmetic. At large n a level's condition number grows like n, and
// plain dense LU lands ~2·10⁻¹⁰ from the true solution at n = 10⁵–10⁶;
// the refined answer is the reference both LUs can be held to.
func refinedSolve(A [][]float64, b []float64) ([]float64, error) {
	solve := func(rhs []float64) ([]float64, error) {
		C := make([][]float64, len(A))
		for i, row := range A {
			C[i] = append([]float64(nil), row...)
		}
		return denseSolve(C, append([]float64(nil), rhs...))
	}
	x, err := solve(b)
	if err != nil {
		return nil, err
	}
	r := make([]float64, len(b))
	for round := 0; round < 3; round++ {
		for i, row := range A {
			// r_i = b_i − Σ_j A_ij·x_j, each product split exactly by FMA
			// and each sum by TwoSum, the rounding errors summed apart.
			s, c := b[i], 0.0
			for j, a := range row {
				p := a * x[j]
				t := s - p
				v := t - s
				c += (s - (t - v)) + (-p - v) - math.FMA(a, x[j], -p)
				s = t
			}
			r[i] = s + c
		}
		dx, err := solve(r)
		if err != nil {
			return nil, err
		}
		for i := range x {
			x[i] += dx[i]
		}
	}
	return x, nil
}

// levelChain is a chain whose level systems the solver tests solve.
type levelChain struct {
	name string
	ch   *lchain
}

// levelChains are lumped chains from the initial configuration and
// endgame chains at their handoff level, small n to n = 10⁶.
func levelChains(t *testing.T) []levelChain {
	t.Helper()
	var chains []levelChain
	for _, fx := range []struct{ n, k int }{{13, 3}, {9, 4}, {20, 5}} {
		ch, err := buildLumped(harness.Proto(fx.k), fx.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, levelChain{fmt.Sprintf("lumped n=%d k=%d", fx.n, fx.k), ch})
	}
	for _, fx := range []struct{ n, k int }{{200, 4}, {377, 5}, {2000, 3}, {4242, 6}, {100_000, 8}, {1_000_000, 4}} {
		cStop, ok := chooseEndgame(fx.n, fx.k, fx.n/fx.k)
		if !ok {
			t.Fatalf("n=%d k=%d: no endgame fits", fx.n, fx.k)
		}
		ch, err := buildEndgame(harness.Proto(fx.k), fx.n, cStop)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, levelChain{fmt.Sprintf("endgame n=%d k=%d from level %d", fx.n, fx.k, cStop), ch})
	}
	return chains
}

// On every level system of the chains, in both orientations, the sparse
// factorization agrees with dense partial-pivoting LU, refined, within
// 1e-10 relative, entry by entry. Each level is factored once: the
// transposed solve reuses the factor of the untransposed one.
func TestLevelSolverMatchesDense(t *testing.T) {
	worst, worstDense := 0.0, 0.0
	for _, c := range levelChains(t) {
		name, ch := c.name, c.ch
		s := newLevelSolver(ch)
		for li, level := range ch.levels {
			var trans []int
			var rhs []float64
			for _, id := range level {
				if !ch.stable[id] {
					trans = append(trans, id)
					rhs = append(rhs, 1+float64(id%7)/7)
				} else if li != len(ch.levels)-1 {
					// hitLevel's factor reuse counts on this.
					t.Errorf("%s: stable node %d below the top level, at level %d", name, id, li+ch.cMin)
				}
			}
			if len(trans) == 0 || len(trans) > denseLevelCap || testing.Short() && len(trans) > 200 {
				continue // -short (the race pass) skips the costliest dense references
			}
			for _, transpose := range []bool{false, true} {
				A := levelMatrix(ch, trans, transpose)
				want, err := refinedSolve(A, rhs)
				if err != nil {
					t.Fatalf("%s level %d: dense reference: %v", name, li+ch.cMin, err)
				}
				plain, err := denseSolve(A, append([]float64(nil), rhs...))
				if err != nil {
					t.Fatalf("%s level %d: dense reference: %v", name, li+ch.cMin, err)
				}
				x := make([]float64, ch.size())
				if err := s.solve(li, trans, rhs, x, transpose); err != nil {
					t.Fatalf("%s level %d (transpose %v): %v", name, li+ch.cMin, transpose, err)
				}
				for i, id := range trans {
					worstDense = max(worstDense, math.Abs(plain[i]-want[i])/math.Abs(want[i]))
					d := math.Abs(x[id]-want[i]) / math.Abs(want[i])
					worst = max(worst, d)
					if d > 1e-10 {
						t.Errorf("%s level %d (transpose %v) node %d: %.17g, reference %.17g (rel diff %.3g)",
							name, li+ch.cMin, transpose, id, x[id], want[i], d)
					}
				}
			}
			if f := s.lu[li]; f == nil || len(f.ids) != len(trans) {
				t.Errorf("%s level %d: no factor kept for the level's %d transient nodes", name, li+ch.cMin, len(trans))
			}
		}
	}
	t.Logf("worst relative difference from the refined reference: sparse LU %.3g, plain dense LU %.3g", worst, worstDense)
}

// A level whose transient set the chain cannot leave is singular: here
// the stable configurations, solved as if transient. Both solvers must
// refuse it rather than return a number.
func TestLevelSolverRefusesSingularLevel(t *testing.T) {
	for _, fx := range []struct{ n, k int }{{12, 3}, {13, 3}, {16, 4}} {
		ch, err := buildLumped(harness.Proto(fx.k), fx.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		top := len(ch.levels) - 1
		trans := ch.levels[top]
		rhs := make([]float64, len(trans))
		for i := range rhs {
			rhs[i] = 1
		}
		if _, err := denseSolve(levelMatrix(ch, trans, false), rhs); err == nil || !strings.Contains(err.Error(), "singular level system") {
			t.Errorf("n=%d k=%d: dense reference on the top level with stable nodes transient: err = %v", fx.n, fx.k, err)
		}
		_, err = ch.solveHitting(newLevelSolver(ch), make([]bool, ch.size()))
		if err == nil || !strings.Contains(err.Error(), "singular level system") {
			t.Errorf("n=%d k=%d: hitting pass with nothing absorbing: err = %v, want a singular level system", fx.n, fx.k, err)
		}
	}
}
