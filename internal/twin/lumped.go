package twin

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/protocol"
)

// Rung 1: the exactly lumped chain.
//
// Lemma 1 (core.CheckInvariant) makes every reachable configuration's
// g-counts a pure function of the reduced vector
//
//	(a, b, m2..m(k−1), d1..d(k−2), c)  with  a = #initial, b = #initial',
//	                                        c = #gk,
//
// so dropping the g-counts loses nothing: the reduced chain is isomorphic
// to the full configuration chain.
//
// Tempting but wrong: a further 2× from canonicalizing the a ↔ b parity
// swap. Rules 1–8 do treat initial and initial' as mirror images, but
// rules 9 and 10 emit specifically `initial` — never initial' — so the
// swap is NOT an automorphism once d-states exist (k ≥ 3): from (a, b)
// rule 9 leads to (a+1, b), while from the mirror (b, a) it leads to
// (b+1, a), which is not the mirror of the former. The ~0.3% bias that
// lumping introduced is exactly what rung 1's ≤0.1% contract exists to
// catch; the chain keeps both parities.
//
// #gk is monotone non-decreasing along every execution: rule 7 is the
// only producer of gk and no rule consumes gk or g(k−1), so the chain is
// layered by c. The solvers exploit the layering twice — backward
// hitting-time passes become block back-substitution (each level's system
// only references already-solved higher levels), and a single forward
// occupancy pass yields EVERY milestone at once, because the time until
// #gk reaches j is exactly the total time spent in levels c < j.

// ledge is one outgoing lumped transition.
type ledge struct {
	To int
	P  float64
}

// lchain is the lumped chain, built either from the initial configuration
// (cMin = 0, reachable states only, via BFS) or as the level-restricted
// endgame sub-chain c ≥ cMin used by the mean-field rung's handoff.
type lchain struct {
	p    *core.Protocol
	n, k int
	cMin int

	// vecs holds the reduced vectors, vecLen(k) entries per node id;
	// slots is an open-addressing table over them (id + 1, 0 if empty),
	// at most half full.
	vecs  []int32
	slots []int32
	// Node i's outgoing edges are edges[off[i]:off[i+1]], sorted by To;
	// targets are never at lower levels.
	off   []int32
	edges []ledge
	self  []float64 // self-loop probability per node
	// outMass[i] = Σ out edge probabilities = 1 − self[i], but summed
	// directly: at large n, self approaches 1 and computing 1 − self
	// cancels away most of the significand, while the direct sum keeps
	// full precision. Every solver divides by this.
	outMass []float64
	stable  []bool
	lvl     []int32 // #gk per node
	// levels[c − cMin] lists node ids with #gk = c, in build order.
	levels [][]int
	start  int // node id of the all-initial configuration; −1 for endgame chains
}

// vecLen returns the reduced-vector length for k: a, b, k−2 m-counts,
// k−2 d-counts, c.
func vecLen(k int) int { return 2*k - 1 }

// slotWeights returns each reduced-vector slot's weight in the population
// identity n = a + b + Σ i·m_i + Σ (i+1)·d_i + k·c, in vector order: a
// and b weigh 1, m_i weighs i (itself plus the i−1 g-agents its Lemma 1
// terms imply), d_i weighs i+1 and c weighs k.
func slotWeights(k int) []int {
	w := make([]int, vecLen(k))
	w[0], w[1] = 1, 1
	for i := 2; i <= k-1; i++ {
		w[i] = i
	}
	for i := 1; i <= k-2; i++ {
		w[k+i-1] = i + 1
	}
	w[2*k-2] = k
	return w
}

// decodeFull expands a reduced vector into a dense state-count vector,
// reconstructing the g-counts through the Lemma 1 identity.
func decodeFull(p *core.Protocol, vec []int32, counts []int) {
	k := p.K()
	for i := range counts {
		counts[i] = 0
	}
	counts[0] = int(vec[0])
	counts[1] = int(vec[1])
	for i := 2; i <= k-1; i++ {
		counts[p.M(i)] = int(vec[i])
	}
	for i := 1; i <= k-2; i++ {
		counts[p.D(i)] = int(vec[k+i-1])
	}
	c := int(vec[2*k-2])
	mSuffix, dSuffix := 0, 0
	for x := k; x >= 1; x-- {
		if x+1 <= k-1 {
			mSuffix += counts[p.M(x+1)]
		}
		if x <= k-2 {
			dSuffix += counts[p.D(x)]
		}
		counts[p.G(x)] = mSuffix + dSuffix + c
	}
}

// encodeReduced extracts the reduced vector from a dense state-count
// vector.
func encodeReduced(p *core.Protocol, counts []int, vec []int32) {
	k := p.K()
	vec[0], vec[1] = int32(counts[0]), int32(counts[1])
	for i := 2; i <= k-1; i++ {
		vec[i] = int32(counts[p.M(i)])
	}
	for i := 1; i <= k-2; i++ {
		vec[k+i-1] = int32(counts[p.D(i)])
	}
	vec[2*k-2] = int32(counts[p.G(k)])
}

// size returns the number of nodes.
func (ch *lchain) size() int { return len(ch.vecs) / vecLen(ch.k) }

// vec returns node i's reduced vector.
func (ch *lchain) vec(i int) []int32 {
	L := vecLen(ch.k)
	return ch.vecs[i*L : (i+1)*L : (i+1)*L]
}

// outOf returns node i's outgoing edges.
func (ch *lchain) outOf(i int) []ledge { return ch.edges[ch.off[i]:ch.off[i+1]] }

// find returns vec's node id, or −1 and the empty slot it would take.
func (ch *lchain) find(vec []int32) (id, slot int) {
	h := uint64(14695981039346656037) // FNV-1a over the entries
	for _, v := range vec {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	mask := uint64(len(ch.slots) - 1)
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask { // the high half mixes every entry
		s := ch.slots[i]
		if s == 0 {
			return -1, int(i)
		}
		if slices.Equal(ch.vec(int(s-1)), vec) {
			return int(s - 1), int(i)
		}
	}
}

// lookup returns vec's node id.
func (ch *lchain) lookup(vec []int32) (int, bool) {
	id, _ := ch.find(vec)
	return id, id >= 0
}

// intern returns vec's node id, appending vec as a new node if absent.
func (ch *lchain) intern(vec []int32) int {
	id, slot := ch.find(vec)
	if id >= 0 {
		return id
	}
	id = ch.size()
	ch.vecs = append(ch.vecs, vec...)
	ch.slots[slot] = int32(id + 1)
	if 2*(id+1) > len(ch.slots) {
		ch.slots = make([]int32, 2*len(ch.slots))
		for j := 0; j <= id; j++ {
			_, slot := ch.find(ch.vec(j))
			ch.slots[slot] = int32(j + 1)
		}
	}
	return id
}

// vecDelta is what one interaction does to the reduced vector: an agent
// leaves each slot of from and joins each slot of to (−1: no slot, for
// the g-states below gk, which the vector leaves out). A slot on both
// sides cancels and each side is sorted, so equal deltas are equal values.
type vecDelta struct{ from, to [2]int32 }

// newVecDelta returns the delta of a pair that leaves the slots from and
// enters the slots to.
func newVecDelta(from, to [2]int32) vecDelta {
	for i := range from {
		for j := range to {
			if from[i] >= 0 && from[i] == to[j] {
				from[i], to[j] = -1, -1
				break
			}
		}
	}
	if from[0] > from[1] {
		from[0], from[1] = from[1], from[0]
	}
	if to[0] > to[1] {
		to[0], to[1] = to[1], to[0]
	}
	return vecDelta{from, to}
}

// apply writes vec moved by d into out.
func (d vecDelta) apply(vec, out []int32) {
	copy(out, vec)
	for i := range d.from {
		if d.from[i] >= 0 {
			out[d.from[i]]--
		}
		if d.to[i] >= 0 {
			out[d.to[i]]++
		}
	}
}

// reducedMoves tabulates what each ordered state pair does to the
// reduced vector. Encoding is linear in the counts, and each state counts
// in at most one slot, so a rule moves the vector by the same sparse
// delta at every node: move[s1·S+s2] is −1 when the pair leaves the
// vector unchanged (a null or identity rule), else an index into deltas,
// which lists each distinct nonzero delta once. The table costs O(1) per
// pair: the largest k's 4096² pairs take about a second on a 2-vCPU host.
func reducedMoves(p *core.Protocol) (move []int32, deltas []vecDelta) {
	S := p.NumStates()
	slot := make([]int32, S) // the slot each state counts in, −1 for none
	unit := make([]int, S)
	vec := make([]int32, vecLen(p.K()))
	for s := range slot {
		clear(unit)
		unit[s] = 1
		encodeReduced(p, unit, vec)
		slot[s] = int32(slices.Index(vec, 1))
	}
	index := make(map[vecDelta]int32)
	none := vecDelta{[2]int32{-1, -1}, [2]int32{-1, -1}}
	move = make([]int32, S*S)
	for s1 := 0; s1 < S; s1++ {
		for s2 := 0; s2 < S; s2++ {
			out, _ := p.Delta(protocol.State(s1), protocol.State(s2))
			d := newVecDelta([2]int32{slot[s1], slot[s2]}, [2]int32{slot[out.P], slot[out.Q]})
			if d == none {
				move[s1*S+s2] = -1
				continue
			}
			g, ok := index[d]
			if !ok {
				g = int32(len(deltas))
				index[d] = g
				deltas = append(deltas, d)
			}
			move[s1*S+s2] = g
		}
	}
	return move, deltas
}

// buildLumped builds the reachable lumped chain from the all-initial
// configuration by BFS. It fails once the node count exceeds budget, so
// rung selection can probe cheaply.
func buildLumped(p *core.Protocol, n, budget int) (*lchain, error) {
	ch := &lchain{p: p, n: n, k: p.K(), start: 0}
	L := vecLen(ch.k)
	init := make([]int32, L)
	init[0] = int32(n)
	return ch, ch.grow([][]int32{init}, budget)
}

// buildEndgame builds the level-restricted sub-chain of every
// Lemma-1-consistent state with #gk >= cMin — the states the chain can
// occupy once the fluid phase has filled all but the last few groups.
// Seeding with ALL states of level cMin (not just reachable ones) is
// deliberate: the mean-field handoff enters at a distribution over the
// whole floor level. The caller sizes cMin (chooseEndgame), so the build
// takes no budget.
func buildEndgame(p *core.Protocol, n, cMin int) (*lchain, error) {
	ch := &lchain{p: p, n: n, k: p.K(), cMin: cMin, start: -1}
	seeds := enumerateLevel(p, n, cMin)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("twin: no states at level %d for n=%d k=%d", cMin, n, p.K())
	}
	return ch, ch.grow(seeds, 0)
}

// enumerateLevel lists every reduced vector with #gk = c: all (a, b, m, d)
// splits of the residual weight n − k·c under the population identity
// n = a + b + Σ p·m_p + Σ (q+1)·d_q + k·c.
func enumerateLevel(p *core.Protocol, n, c int) [][]int32 {
	k := p.K()
	L := vecLen(k)
	residual := n - k*c
	if residual < 0 {
		return nil
	}
	// The m and d slots, 2..L−2, take every count their weight allows;
	// a and b split what is left.
	w := slotWeights(k)
	var out [][]int32
	vec := make([]int32, L)
	vec[L-1] = int32(c)
	var rec func(idx, left int)
	rec = func(idx, left int) {
		if idx == L-1 {
			for a := 0; a <= left; a++ {
				v := append([]int32(nil), vec...)
				v[0], v[1] = int32(a), int32(left-a)
				out = append(out, v)
			}
			return
		}
		for cnt := 0; cnt*w[idx] <= left; cnt++ {
			vec[idx] = int32(cnt)
			rec(idx+1, left-cnt*w[idx])
		}
		vec[idx] = 0
	}
	rec(2, residual)
	return out
}

// levelCounts returns, for every residual weight r = 0..maxResidual, the
// number of (a, b, m, d) splits of r — the states of a #gk level whose
// non-gk agents weigh r — each saturating at limit. It is one DP over the
// slot weights but c, counting the non-negative solutions of Σ w_i·x_i =
// r; a saturated entry is exactly min(count, limit).
func levelCounts(k, maxResidual, limit int) []int {
	weights := slotWeights(k)
	dp := make([]int, maxResidual+1)
	dp[0] = 1
	for _, w := range weights[:len(weights)-1] {
		for s := w; s <= maxResidual; s++ {
			dp[s] = min(dp[s]+dp[s-w], limit)
		}
	}
	return dp
}

// endgameCount counts the reduced states with #gk >= cStop, saturating
// at limit; endgameCount(n, k, 0, limit) counts every reduced vector of
// (n, k).
func endgameCount(n, k, cStop, limit int) int {
	counts := levelCounts(k, n-k*cStop, limit)
	total := 0
	for c := cStop; k*c <= n; c++ {
		total = min(total+counts[n-k*c], limit)
	}
	return total
}

// grow explores from the seed vectors, building nodes, edges, levels and
// the stability mask. A node's lumped out-distribution sums its pair
// weights c1·(c2 − [s1 = s2])/(n(n−1)) by reduced move, in (s1, s2)
// order; targets get ids in the order their first pair is met, which
// with BFS numbers the nodes deterministically. Transitions must never
// descend below a node's level (the #gk monotonicity the solvers rely
// on); grow checks that instead of assuming it.
func (ch *lchain) grow(seeds [][]int32, budget int) error {
	p, n, L := ch.p, ch.n, vecLen(ch.k)
	size := 64
	for size < 2*len(seeds) {
		size *= 2
	}
	ch.slots = make([]int32, size)
	for _, s := range seeds {
		ch.intern(s)
	}
	isStable, err := p.StableChecker(n)
	if err != nil {
		return fmt.Errorf("twin: %v", err)
	}
	move, deltas := reducedMoves(p)
	S := p.NumStates()
	counts := make([]int, S)
	cur := make([]int32, L)
	target := make([]int32, L)
	acc := make([]float64, len(deltas)) // weight per move at the current node; 0 = not met yet
	var met []int32                     // moves met at the current node, in (s1, s2) order
	total := float64(n) * float64(n-1)
	ch.off = append(ch.off, 0)
	for i := 0; i < ch.size(); i++ {
		if budget > 0 && ch.size() > budget {
			return fmt.Errorf("twin: lumped chain for n=%d k=%d exceeds the %d-state budget", n, ch.k, budget)
		}
		copy(cur, ch.vec(i))
		decodeFull(p, cur, counts)
		self := 0.0
		met = met[:0]
		for s1, c1 := range counts {
			if c1 == 0 {
				continue
			}
			for s2, mv := range move[s1*S : (s1+1)*S] {
				c2 := counts[s2]
				if s2 == s1 {
					c2--
				}
				if c2 <= 0 {
					continue
				}
				w := float64(c1) * float64(c2) / total
				if mv < 0 {
					self += w
					continue
				}
				if acc[mv] == 0 {
					met = append(met, mv)
				}
				acc[mv] += w
			}
		}
		for _, mv := range met {
			deltas[mv].apply(cur, target)
			ch.edges = append(ch.edges, ledge{To: ch.intern(target), P: acc[mv]})
			acc[mv] = 0
		}
		ch.off = append(ch.off, int32(len(ch.edges)))
		ch.self = append(ch.self, self)
		ch.stable = append(ch.stable, isStable(counts))
	}
	// Levels and the monotonicity check; then sort edges for determinism
	// of the float sums (same reason markov.New sorts).
	N := ch.size()
	ch.lvl = make([]int32, N)
	maxLevel := 0
	for id := range ch.lvl {
		l := int(ch.vecs[id*L+L-1])
		ch.lvl[id] = int32(l)
		maxLevel = max(maxLevel, l)
	}
	ch.levels = make([][]int, maxLevel-ch.cMin+1)
	ch.outMass = make([]float64, N)
	for id, l := range ch.lvl {
		if int(l) < ch.cMin {
			return fmt.Errorf("twin: node %d at level %d below floor %d", id, l, ch.cMin)
		}
		ch.levels[int(l)-ch.cMin] = append(ch.levels[int(l)-ch.cMin], id)
		out := ch.outOf(id)
		slices.SortFunc(out, func(a, b ledge) int { return a.To - b.To })
		sum := 0.0
		for _, e := range out {
			if ch.lvl[e.To] < l {
				return fmt.Errorf("twin: #gk decreased on edge %d->%d — lumping is broken", id, e.To)
			}
			sum += e.P
		}
		ch.outMass[id] = sum
	}
	return nil
}

// Solver parameters: levels up to denseLevelCap transient nodes solve by
// an exact sparse LU (sparseLU: immune to slow mixing within a level);
// larger levels fall back to Gauss–Seidel sweeps. The fallback is only
// safe at moderate n, where in-level transition rates are not vanishingly
// small — at large n the level sub-chains mix on the 1/n² rate scale and
// GS contracts too slowly to terminate. Endgame chains therefore never
// rely on it: chooseEndgame rejects any handoff whose floor level exceeds
// the cap.
const (
	lumpedTol     = 1e-12
	lumpedMaxIter = 200_000
	denseLevelCap = 800
)

// levelSolver solves a chain's level systems
//
//	outMass_i·x_i − Σ_{j ∈ level, transient} P_ij·x_j = rhs_i
//
// (or their transposes, for the forward occupancy pass) for one Predict
// call. Each level's factorization is kept for the solver's lifetime and
// reused by every later pass over the same transient set — the hitting,
// second-moment and occupancy passes and each milestone's hitting pass —
// and goes with the solver when the call returns.
type levelSolver struct {
	ch    *lchain
	local []int32     // node id → index among the level's transient nodes, −1 elsewhere
	lu    []*sparseLU // by level index, nil until the level is factored
	sc    luScratch
	// The level matrix's off-diagonal rows, rebuilt per factorization.
	rowOff, cols []int32
	vals, diag   []float64
}

func newLevelSolver(ch *lchain) *levelSolver {
	return &levelSolver{ch: ch, lu: make([]*sparseLU, len(ch.levels))}
}

// solve solves level li's system over its transient node ids trans,
// writing the results into the global x slice. rhs is indexed like
// trans.
func (s *levelSolver) solve(li int, trans []int, rhs, x []float64, transpose bool) error {
	m := len(trans)
	if m == 0 {
		return nil
	}
	if s.local == nil {
		s.local = make([]int32, s.ch.size())
		for i := range s.local {
			s.local[i] = -1
		}
	}
	for i, id := range trans {
		s.local[id] = int32(i)
	}
	defer func() {
		for _, id := range trans {
			s.local[id] = -1
		}
	}()
	if m > denseLevelCap {
		return s.gaussSeidel(trans, rhs, x, transpose)
	}
	f := s.lu[li]
	if f == nil || !slices.Equal(f.ids, trans) {
		var err error
		if f, err = s.factor(trans); err != nil {
			return err
		}
		s.lu[li] = f
	}
	for t, i := range f.perm {
		f.b[t] = rhs[i]
	}
	if transpose {
		f.solveT()
	} else {
		f.solve()
	}
	for t, i := range f.perm {
		x[trans[i]] = f.b[t]
	}
	return nil
}

// factor assembles and factors the level matrix over trans: the exact
// out-mass on the diagonal, the negated in-level transition probabilities
// between transient nodes off it.
func (s *levelSolver) factor(trans []int) (*sparseLU, error) {
	ch := s.ch
	s.rowOff = append(s.rowOff[:0], 0)
	s.cols, s.vals, s.diag = s.cols[:0], s.vals[:0], s.diag[:0]
	for _, id := range trans {
		for _, e := range ch.outOf(id) {
			if lj := s.local[e.To]; lj >= 0 {
				s.cols = append(s.cols, lj)
				s.vals = append(s.vals, -e.P)
			}
		}
		s.rowOff = append(s.rowOff, int32(len(s.cols)))
		s.diag = append(s.diag, ch.outMass[id])
	}
	return factorLevel(trans, s.diag, s.rowOff, s.cols, s.vals, &s.sc)
}

// gaussSeidel is the fallback for levels above denseLevelCap.
func (s *levelSolver) gaussSeidel(trans []int, rhs, x []float64, transpose bool) error {
	ch := s.ch
	m := len(trans)
	var in [][]ledge
	if transpose {
		in = make([][]ledge, m)
		for li, id := range trans {
			for _, e := range ch.outOf(id) {
				if lj := s.local[e.To]; lj >= 0 {
					in[lj] = append(in[lj], ledge{To: li, P: e.P})
				}
			}
		}
	}
	for iter := 0; iter < lumpedMaxIter; iter++ {
		var maxDelta, maxX float64
		for li, id := range trans {
			sum := rhs[li]
			if transpose {
				for _, e := range in[li] {
					sum += e.P * x[trans[e.To]]
				}
			} else {
				for _, e := range ch.outOf(id) {
					if s.local[e.To] >= 0 {
						sum += e.P * x[e.To]
					}
				}
			}
			denom := ch.outMass[id]
			if denom <= 0 {
				return fmt.Errorf("twin: node %d is fully self-looping", id)
			}
			v := sum / denom
			if d := math.Abs(v - x[id]); d > maxDelta {
				maxDelta = d
			}
			if a := math.Abs(v); a > maxX {
				maxX = a
			}
			x[id] = v
		}
		if maxDelta < lumpedTol*(1+maxX) {
			return nil
		}
	}
	return fmt.Errorf("twin: level with %d nodes did not converge in %d sweeps", m, lumpedMaxIter)
}

// solveHitting returns the expected number of interactions from every
// node to the absorb set, processing levels top-down so each level's
// system only involves itself and already-solved higher levels.
func (ch *lchain) solveHitting(s *levelSolver, absorb []bool) ([]float64, error) {
	E := make([]float64, ch.size())
	for li := len(ch.levels) - 1; li >= 0; li-- {
		var trans []int
		var rhs []float64
		for _, i := range ch.levels[li] {
			if absorb[i] {
				continue
			}
			// rhs = 1 + mass flowing to already-solved higher levels.
			sum := 1.0
			for _, e := range ch.outOf(i) {
				if ch.lvl[e.To] > ch.lvl[i] {
					sum += e.P * E[e.To]
				}
			}
			trans = append(trans, i)
			rhs = append(rhs, sum)
		}
		if err := s.solve(li, trans, rhs, E, false); err != nil {
			return nil, fmt.Errorf("%w (hitting, level %d)", err, li+ch.cMin)
		}
	}
	return E, nil
}

// moments returns the first and second moments of the stable hitting
// time from every node.
func (ch *lchain) moments(s *levelSolver) (E, M []float64, err error) {
	if E, err = ch.solveHitting(s, ch.stable); err != nil {
		return nil, nil, err
	}
	if M, err = ch.secondMoments(s, E); err != nil {
		return nil, nil, err
	}
	return E, M, nil
}

// hitLevel returns expected interactions until #gk first reaches j.
// Stable nodes sit at the top level only, so the transient set of every
// level below j is the one the stable-hitting pass factored.
func (ch *lchain) hitLevel(s *levelSolver, j int) ([]float64, error) {
	absorb := make([]bool, ch.size())
	for i, l := range ch.lvl {
		absorb[i] = int(l) >= j
	}
	return ch.solveHitting(s, absorb)
}

// secondMoments solves E[T²] for the stable-set hitting time given the
// first moments, with the same level-ordered passes (the system shares
// the chain's matrix — see markov.SecondMoments for the derivation).
func (ch *lchain) secondMoments(s *levelSolver, E []float64) ([]float64, error) {
	M := make([]float64, ch.size())
	for li := len(ch.levels) - 1; li >= 0; li-- {
		var trans []int
		var rhs []float64
		for _, i := range ch.levels[li] {
			if ch.stable[i] {
				continue
			}
			sum := 1.0 + 2*ch.self[i]*E[i]
			for _, e := range ch.outOf(i) {
				sum += 2 * e.P * E[e.To]
				if ch.lvl[e.To] > ch.lvl[i] {
					sum += e.P * M[e.To]
				}
			}
			trans = append(trans, i)
			rhs = append(rhs, sum)
		}
		if err := s.solve(li, trans, rhs, M, false); err != nil {
			return nil, fmt.Errorf("%w (second moments, level %d)", err, li+ch.cMin)
		}
	}
	return M, nil
}

// occupancy computes ν[i], the expected number of interactions executed
// while the chain sits at node i, from unit mass at the start node — a
// forward pass, level by level (mass only flows upward). Stable nodes are
// absorbing: mass entering them leaves the accounting.
func (ch *lchain) occupancy(s *levelSolver) ([]float64, error) {
	if ch.start < 0 {
		return nil, fmt.Errorf("twin: occupancy needs a chain built from the initial configuration")
	}
	nu := make([]float64, ch.size())
	entry := make([]float64, ch.size())
	entry[ch.start] = 1
	for li := 0; li < len(ch.levels); li++ {
		var trans []int
		var rhs []float64
		for _, i := range ch.levels[li] {
			if ch.stable[i] {
				continue
			}
			trans = append(trans, i)
			rhs = append(rhs, entry[i])
		}
		// The occupancy system is the hitting system transposed: mass
		// flows along edges instead of expectations flowing against them.
		if err := s.solve(li, trans, rhs, nu, true); err != nil {
			return nil, fmt.Errorf("%w (occupancy, level %d)", err, li+ch.cMin)
		}
		// Push the level's settled mass to higher levels.
		for _, i := range trans {
			for _, e := range ch.outOf(i) {
				if ch.lvl[e.To] > ch.lvl[i] {
					entry[e.To] += e.P * nu[i]
				}
			}
		}
	}
	return nu, nil
}

// milestoneTimes returns the expected interactions until #gk reaches j,
// for j = 1..⌊n/k⌋, via one occupancy pass: milestone j is the total
// expected time spent at levels below j, and levels are left for good.
func (ch *lchain) milestoneTimes(s *levelSolver) ([]float64, error) {
	nu, err := ch.occupancy(s)
	if err != nil {
		return nil, err
	}
	q := ch.n / ch.k
	tau := make([]float64, len(ch.levels))
	for li, nodes := range ch.levels {
		for _, i := range nodes {
			tau[li] += nu[i]
		}
	}
	out := make([]float64, q)
	cum := 0.0
	for j := 1; j <= q; j++ {
		cum += tau[j-1]
		out[j-1] = cum
	}
	return out, nil
}

// LumpedFits reports whether the lumped state space of (n, k) fits the
// budget, without building it: an exact saturating count of the reduced
// vectors (a DP over the population identity's weights), short-circuited
// by the Θ(n²/k) lower bound from the (a, b, c)-only states so huge
// populations answer immediately.
func LumpedFits(n, k, budget int) bool {
	if budget <= 0 {
		return false
	}
	// Lower bound: states with m = d = 0 alone number
	// Σ_{c=0}^{⌊n/k⌋} (n − kc + 1) ≥ n²/(2k) for n ≥ k.
	if n >= k && n*(n/k)/2 > budget {
		return false
	}
	return endgameCount(n, k, 0, budget+1) <= budget
}

// Lumped is rung 1 of the ladder: exact expectations from the lumped
// chain for every (n, k) whose reduced state space fits
// DefaultStateBudget. It holds no state.
type Lumped struct{}

// NewLumped returns the exact rung.
func NewLumped() *Lumped { return &Lumped{} }

// Name implements Model.
func (l *Lumped) Name() string { return "lumped" }

// Fidelity implements Model.
func (l *Lumped) Fidelity() Fidelity { return FidelityExact }

// Predict implements Model: exact expectation, exact variance, and (on
// request) exact per-milestone times, all from one chain build.
func (l *Lumped) Predict(s Spec) (Prediction, error) {
	if err := checkSpec(s); err != nil {
		return Prediction{}, err
	}
	p, err := core.New(s.K)
	if err != nil {
		return Prediction{}, fmt.Errorf("twin: %v", err)
	}
	ch, err := buildLumped(p, s.N, DefaultStateBudget)
	if err != nil {
		return Prediction{}, err
	}
	sol := newLevelSolver(ch)
	E, M, err := ch.moments(sol)
	if err != nil {
		return Prediction{}, err
	}
	variance := M[ch.start] - E[ch.start]*E[ch.start]
	if variance < 0 {
		variance = 0 // float cancellation on near-deterministic chains
	}
	pr := Prediction{
		N: s.N, K: s.K,
		Model:                l.Name(),
		Fidelity:             l.Fidelity(),
		ExpectedInteractions: E[ch.start],
		StdInteractions:      math.Sqrt(variance),
		RelErrBudget:         RelErrExact,
		States:               ch.size(),
	}
	if s.Milestones {
		ms, err := ch.milestoneTimes(sol)
		if err != nil {
			return Prediction{}, err
		}
		pr.Milestones = ms
	}
	finishPrediction(&pr)
	return pr, nil
}
