package twin

import (
	"fmt"
	"math"
	"math/bits"
)

// sparseLU factors one level system A = diag(outMass) − P_in, restricted
// to the level's transient nodes, as P·A·Pᵀ = L·U with L unit lower
// triangular. The symmetric permutation P is a greedy minimum-degree
// order of A's symmetrized pattern, which keeps the fill of L and U far
// below the dense m³/3 work.
//
// No pivoting is needed for stability. A is a row-diagonally-dominant
// M-matrix (each diagonal is the node's whole out-mass, each off-diagonal
// minus a part of it), and every Schur complement of such a matrix is
// one again, so in exact arithmetic every pivot of a nonsingular level
// is positive in any symmetric order. A pivot that is not positive
// therefore means a singular level (a set of transient nodes the chain
// cannot leave), reported as such.
//
// One factorization serves every right-hand side solved against the
// same level: solve for the backward (hitting-time) passes, solveT for
// the forward occupancy pass.
type sparseLU struct {
	ids  []int     // the level's transient node ids, in the caller's order
	perm []int32   // perm[t]: the index into ids eliminated at step t
	diag []float64 // U's diagonal, by step
	// Row t of U right of its diagonal is uCol/uVal[uOff[t]:uOff[t+1]];
	// row t of L left of its unit diagonal is lCol/lVal[lOff[t]:lOff[t+1]],
	// in increasing step order. Column indices are steps.
	uOff, uCol []int32
	uVal       []float64
	lOff, lCol []int32
	lVal       []float64
	b          []float64 // right-hand side in step order
}

// luScratch holds the buffers one factorization needs only while it
// runs, reused across the levels of one solve.
type luScratch struct {
	adj []uint64 // symmetrized pattern, one bit row per index
	deg []int32  // degree in the elimination graph; eliminated: MaxInt32
	pos []int32  // index → step
	x   []float64
}

// factorLevel factors the m×m matrix with diagonal diag and off-diagonal
// rows cols/vals[rowOff[i]:rowOff[i+1]] (column indices 0..m−1, none on
// the diagonal, none repeated within a row).
func factorLevel(ids []int, diag []float64, rowOff, cols []int32, vals []float64, sc *luScratch) (*sparseLU, error) {
	m := len(diag)
	f := &sparseLU{ids: ids, diag: make([]float64, m), b: make([]float64, m)}
	f.minDegree(rowOff, cols, sc)
	// Renumber U's pattern from indices to steps, and lay out L's pattern
	// as U's transpose (the filled pattern is symmetric).
	pos := sc.pos
	for t, i := range f.perm {
		pos[i] = int32(t)
	}
	f.lOff = make([]int32, m+1)
	for q, i := range f.uCol {
		w := pos[i]
		f.uCol[q] = w
		f.lOff[w+1]++
	}
	for t := 0; t < m; t++ {
		f.lOff[t+1] += f.lOff[t]
	}
	nnz := len(f.uCol)
	f.lCol = make([]int32, nnz)
	next := make([]int32, m)
	copy(next, f.lOff[:m])
	for t := 0; t < m; t++ {
		for _, w := range f.uCol[f.uOff[t]:f.uOff[t+1]] {
			f.lCol[next[w]] = int32(t)
			next[w]++
		}
	}
	// Numeric factorization, one row at a time: scatter row t of P·A·Pᵀ,
	// eliminate it against the rows of U above it in step order, gather
	// the row of L and the row of U. Every entry the elimination touches
	// lies in the symbolic pattern, so x is all zero between rows.
	f.uVal = make([]float64, nnz)
	f.lVal = make([]float64, nnz)
	x := sc.x[:m]
	for t, i := range f.perm {
		x[t] = diag[i]
		for q := rowOff[i]; q < rowOff[i+1]; q++ {
			x[pos[cols[q]]] = vals[q]
		}
		for q := f.lOff[t]; q < f.lOff[t+1]; q++ {
			j := f.lCol[q]
			l := x[j] / f.diag[j]
			x[j] = 0
			f.lVal[q] = l
			if l == 0 {
				continue
			}
			uv := f.uVal[f.uOff[j]:f.uOff[j+1]]
			for r, w := range f.uCol[f.uOff[j]:f.uOff[j+1]] {
				x[w] -= l * uv[r]
			}
		}
		piv := x[t]
		x[t] = 0
		if !(piv > 0) {
			return nil, fmt.Errorf("twin: singular level system at step %d of %d", t, m)
		}
		f.diag[t] = piv
		for r := f.uOff[t]; r < f.uOff[t+1]; r++ {
			w := f.uCol[r]
			f.uVal[r] = x[w]
			x[w] = 0
		}
	}
	return f, nil
}

// minDegree fills perm and U's pattern (uOff, uCol, as indices) by
// eliminating, at each step, the remaining index of least degree in the
// elimination graph (the lowest index on a tie), whose remaining
// neighbours then form a clique: they are row t's pattern of U.
func (f *sparseLU) minDegree(rowOff, cols []int32, sc *luScratch) {
	m := len(f.diag)
	words := (m + 63) / 64
	sc.grow(m, words)
	adj, deg := sc.adj, sc.deg
	for i := 0; i < m; i++ {
		for _, j := range cols[rowOff[i]:rowOff[i+1]] {
			adj[i*words+int(j)/64] |= 1 << (uint(j) % 64)
			adj[int(j)*words+i/64] |= 1 << (uint(i) % 64)
		}
	}
	for i := 0; i < m; i++ {
		deg[i] = popcount(adj[i*words : (i+1)*words])
	}
	f.perm = make([]int32, m)
	f.uOff = make([]int32, m+1)
	for t := 0; t < m; t++ {
		v := 0
		for i, d := range deg {
			if d < deg[v] {
				v = i
			}
		}
		deg[v] = math.MaxInt32
		f.perm[t] = int32(v)
		rv := adj[v*words : (v+1)*words]
		for w, word := range rv {
			for ; word != 0; word &= word - 1 {
				f.uCol = append(f.uCol, int32(w*64+bits.TrailingZeros64(word)))
			}
		}
		for _, u := range f.uCol[f.uOff[t]:] {
			ru := adj[int(u)*words : (int(u)+1)*words]
			for w := range ru {
				ru[w] |= rv[w]
			}
			ru[u/64] &^= 1 << (uint(u) % 64)
			ru[v/64] &^= 1 << (uint(v) % 64)
			deg[u] = popcount(ru)
		}
		f.uOff[t+1] = int32(len(f.uCol))
	}
}

// grow sizes the scratch for an m-index level and clears what a
// factorization reads before it writes.
func (sc *luScratch) grow(m, words int) {
	if cap(sc.adj) < m*words {
		sc.adj = make([]uint64, m*words)
	}
	sc.adj = sc.adj[:m*words]
	clear(sc.adj)
	if cap(sc.deg) < m {
		sc.deg = make([]int32, m)
		sc.pos = make([]int32, m)
		sc.x = make([]float64, m)
	}
	sc.deg, sc.pos, sc.x = sc.deg[:m], sc.pos[:m], sc.x[:m]
	clear(sc.x) // a singular level's factorization stops with x dirty
}

func popcount(row []uint64) int32 {
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// solve overwrites f.b, a right-hand side in step order, with the
// solution of P·A·Pᵀ·y = f.b: forward through L, backward through U.
func (f *sparseLU) solve() {
	b := f.b
	for i := range b {
		s := b[i]
		for q := f.lOff[i]; q < f.lOff[i+1]; q++ {
			s -= f.lVal[q] * b[f.lCol[q]]
		}
		b[i] = s
	}
	for i := len(b) - 1; i >= 0; i-- {
		s := b[i]
		for q := f.uOff[i]; q < f.uOff[i+1]; q++ {
			s -= f.uVal[q] * b[f.uCol[q]]
		}
		b[i] = s / f.diag[i]
	}
}

// solveT is solve for the transposed system: forward through Uᵀ,
// backward through Lᵀ, reading both factors by rows.
func (f *sparseLU) solveT() {
	b := f.b
	for i := range b {
		bi := b[i] / f.diag[i]
		b[i] = bi
		for q := f.uOff[i]; q < f.uOff[i+1]; q++ {
			b[f.uCol[q]] -= f.uVal[q] * bi
		}
	}
	for i := len(b) - 1; i >= 0; i-- {
		bi := b[i]
		for q := f.lOff[i]; q < f.lOff[i+1]; q++ {
			b[f.lCol[q]] -= f.lVal[q] * bi
		}
	}
}
