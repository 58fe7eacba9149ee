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
// The factorization comes in two parts. The luPattern — the order, the
// patterns of A, L and U — depends only on which edges the chain has,
// so it belongs to the chain's shape and is shared by every answer that
// uses the shape. The sparseLU adds one answer's numbers. One
// factorization serves every right-hand side solved against the same
// level: solve for the backward (hitting-time) passes, solveT for the
// forward occupancy pass.
type sparseLU struct {
	*luPattern
	diag []float64 // U's diagonal, by step
	// uVal and lVal hold the values of U's and L's patterns.
	uVal, lVal []float64
	b          []float64 // right-hand side in step order
}

// luPattern is the symbolic part of a level's sparse LU.
type luPattern struct {
	ids  []int   // the level's transient node ids, in the caller's order
	perm []int32 // perm[t]: the index into ids eliminated at step t
	// Row t of P·A·Pᵀ off its diagonal holds, for q in aOff[t]:aOff[t+1],
	// minus the probability of edge aEdge[q] in step column aCol[q]; its
	// diagonal is the out-mass of node ids[perm[t]].
	aOff, aCol, aEdge []int32
	// Row t of U right of its diagonal is uCol[uOff[t]:uOff[t+1]]; row t
	// of L left of its unit diagonal is lCol[lOff[t]:lOff[t+1]], in
	// increasing step order. Column indices are steps.
	uOff, uCol []int32
	lOff, lCol []int32
}

// luScratch holds the buffers a factorization needs only while it runs,
// reused across the levels of one build or one solve.
type luScratch struct {
	adj   []uint64 // symmetrized pattern, one bit row per index
	deg   []int32  // degree in the elimination graph; eliminated: MaxInt32
	pos   []int32  // index → step
	alive []int32
	x     []float64
	// The level matrix's off-diagonal rows by index, while a pattern is
	// built: columns as indices, and the edge each entry comes from.
	rowOff, cols, edge []int32
}

// newLUPattern orders and symbolically factors the level system over
// the transient node ids trans of shape sh; local maps each id of trans
// to its index in trans and every other node to −1.
func newLUPattern(sh *chainShape, trans []int, local []int32, sc *luScratch) *luPattern {
	m := len(trans)
	sc.rowOff = append(sc.rowOff[:0], 0)
	sc.cols, sc.edge = sc.cols[:0], sc.edge[:0]
	for _, id := range trans {
		for e := sh.off[id]; e < sh.off[id+1]; e++ {
			if lj := local[sh.edges[e].to]; lj >= 0 {
				sc.cols = append(sc.cols, lj)
				sc.edge = append(sc.edge, e)
			}
		}
		sc.rowOff = append(sc.rowOff, int32(len(sc.cols)))
	}
	pt := &luPattern{ids: trans}
	pt.minDegree(m, sc.rowOff, sc.cols, sc)
	// Renumber U's pattern from indices to steps, and lay out L's pattern
	// as U's transpose (the filled pattern is symmetric).
	pos := sc.pos
	for t, i := range pt.perm {
		pos[i] = int32(t)
	}
	pt.lOff = make([]int32, m+1)
	for q, i := range pt.uCol {
		w := pos[i]
		pt.uCol[q] = w
		pt.lOff[w+1]++
	}
	for t := 0; t < m; t++ {
		pt.lOff[t+1] += pt.lOff[t]
	}
	pt.lCol = make([]int32, len(pt.uCol))
	next := make([]int32, m)
	copy(next, pt.lOff[:m])
	for t := 0; t < m; t++ {
		for _, w := range pt.uCol[pt.uOff[t]:pt.uOff[t+1]] {
			pt.lCol[next[w]] = int32(t)
			next[w]++
		}
	}
	// A's rows in step order, columns as steps.
	pt.aOff = make([]int32, m+1)
	pt.aCol = make([]int32, 0, len(sc.cols))
	pt.aEdge = make([]int32, 0, len(sc.cols))
	for t, i := range pt.perm {
		for q := sc.rowOff[i]; q < sc.rowOff[i+1]; q++ {
			pt.aCol = append(pt.aCol, pos[sc.cols[q]])
			pt.aEdge = append(pt.aEdge, sc.edge[q])
		}
		pt.aOff[t+1] = int32(len(pt.aCol))
	}
	return pt
}

// factor is the numeric factorization of chain ch's level system over
// the pattern, one row at a time: scatter row t of P·A·Pᵀ, eliminate it
// against the rows of U above it in step order, gather the row of L and
// the row of U. Every entry the elimination touches lies in the symbolic
// pattern, so x is all zero between rows.
func (pt *luPattern) factor(ch *lchain, sc *luScratch) (*sparseLU, error) {
	m, nnz := len(pt.ids), len(pt.uCol)
	vals := make([]float64, 2*m+2*nnz)
	f := &sparseLU{luPattern: pt, diag: vals[:m:m], b: vals[m : 2*m : 2*m],
		uVal: vals[2*m : 2*m+nnz : 2*m+nnz], lVal: vals[2*m+nnz:]}
	x := sc.zeroX(m)
	for t, i := range pt.perm {
		x[t] = ch.outMass[pt.ids[i]]
		for q := pt.aOff[t]; q < pt.aOff[t+1]; q++ {
			x[pt.aCol[q]] = -ch.P[pt.aEdge[q]]
		}
		for q := pt.lOff[t]; q < pt.lOff[t+1]; q++ {
			j := pt.lCol[q]
			l := x[j] / f.diag[j]
			x[j] = 0
			f.lVal[q] = l
			if l == 0 {
				continue
			}
			uv := f.uVal[pt.uOff[j]:pt.uOff[j+1]]
			for r, w := range pt.uCol[pt.uOff[j]:pt.uOff[j+1]] {
				x[w] -= l * uv[r]
			}
		}
		piv := x[t]
		x[t] = 0
		if !(piv > 0) {
			return nil, fmt.Errorf("twin: singular level system at step %d of %d", t, m)
		}
		f.diag[t] = piv
		for r := pt.uOff[t]; r < pt.uOff[t+1]; r++ {
			w := pt.uCol[r]
			f.uVal[r] = x[w]
			x[w] = 0
		}
	}
	return f, nil
}

// minDegree fills perm and U's pattern (uOff, uCol, as indices) of the
// m-index pattern rows cols[rowOff[i]:rowOff[i+1]] by eliminating, at
// each step, the remaining index of least degree in the elimination
// graph (the lowest index on a tie), whose remaining neighbours then
// form a clique: they are row t's pattern of U.
func (pt *luPattern) minDegree(m int, rowOff, cols []int32, sc *luScratch) {
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
	pt.perm = make([]int32, m)
	pt.uOff = make([]int32, m+1)
	alive := sc.alive[:0] // the indices not yet eliminated, increasing
	for i := 0; i < m; i++ {
		alive = append(alive, int32(i))
	}
	for t := 0; t < m; t++ {
		at, best := 0, deg[alive[0]]
		for a, i := range alive {
			if d := deg[i]; d < best {
				at, best = a, d
			}
		}
		v := int(alive[at])
		alive = append(alive[:at], alive[at+1:]...)
		deg[v] = math.MaxInt32
		pt.perm[t] = int32(v)
		rv := adj[v*words : (v+1)*words]
		for w, word := range rv {
			for ; word != 0; word &= word - 1 {
				pt.uCol = append(pt.uCol, int32(w*64+bits.TrailingZeros64(word)))
			}
		}
		for _, u := range pt.uCol[pt.uOff[t]:] {
			ru := adj[int(u)*words : (int(u)+1)*words]
			for w := range ru {
				ru[w] |= rv[w]
			}
			ru[u/64] &^= 1 << (uint(u) % 64)
			ru[v/64] &^= 1 << (uint(v) % 64)
			deg[u] = popcount(ru)
		}
		pt.uOff[t+1] = int32(len(pt.uCol))
	}
}

// grow sizes the ordering's scratch for an m-index level and clears the
// adjacency, which minDegree reads before it writes.
func (sc *luScratch) grow(m, words int) {
	if cap(sc.adj) < m*words {
		sc.adj = make([]uint64, m*words)
	}
	sc.adj = sc.adj[:m*words]
	clear(sc.adj)
	if cap(sc.deg) < m {
		sc.deg = make([]int32, m)
		sc.pos = make([]int32, m)
		sc.alive = make([]int32, 0, m)
	}
	sc.deg, sc.pos = sc.deg[:m], sc.pos[:m]
}

// zeroX returns the factorization's all-zero row buffer for an m-index
// level (a singular level's factorization stops with it dirty).
func (sc *luScratch) zeroX(m int) []float64 {
	if cap(sc.x) < m {
		sc.x = make([]float64, m)
	}
	sc.x = sc.x[:m]
	clear(sc.x)
	return sc.x
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
