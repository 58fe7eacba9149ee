// Package countsim is an accelerated simulation engine that tracks only
// state counts.
//
// Under the uniform-random scheduler, agents are exchangeable: the
// state-count vector is a sufficient statistic of the configuration, and
// the count process is the same Markov chain the agent-level simulation
// walks (internal/markov makes that chain explicit). This engine exploits
// two consequences:
//
//  1. No agent array. Memory is O(|Q|²) regardless of n, so populations
//     of hundreds of millions of agents cost a few kilobytes.
//  2. Null-run skipping. An interaction between states with no applicable
//     rule changes nothing; given the configuration, the number of
//     consecutive null interactions is geometrically distributed, so the
//     engine samples the run length in O(1) instead of walking it, then
//     samples one productive pair from the exact conditional
//     distribution. Late in an execution — the regime that dominates the
//     paper's Figures 3 and 6, where almost every encounter is a null
//     g-g meeting — this skips the bulk of scheduled steps while
//     preserving the exact joint distribution of (productive-transition
//     sequence, total interaction count).
//
// Equivalence is validated three ways in the tests: against the exact
// Markov expectations, against the agent-level engine, and by an O(S²)
// weight audit re-run after every step. That per-step audit runs only in
// the tests; Sim.Step itself pays O(S) per productive step. The batched
// engine (batch.go) audits at run time: O(S²) at every bulk batch and
// O(S), inductively, at every final-approach step.
package countsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// Sim is a count-based population simulation. Not safe for concurrent use.
type Sim struct {
	proto protocol.Protocol
	S     int
	n     int
	rand  *rng.Rand

	counts []int
	// nullPair[a*S+b] records that δ(a,b) is the identity.
	nullPair []bool
	// result[a*S+b] caches δ(a,b).
	result []protocol.Pair

	// Incremental bookkeeping for the ordered null weight
	//
	//	nullW = Σ_{null(a,b)} c_a·(c_b − [a = b])
	//
	// maintained via the row/column sums of the null mask:
	//	rowSum[a] = Σ_{b: null(a,b)} c_b
	//	colSum[b] = Σ_{a: null(a,b)} c_a
	rowSum []int64
	colSum []int64
	nullW  int64
	// nonNull lists, for each state x, the states a with δ(a,x) non-null
	// (nonNull[nonNullOff[2x]:nonNullOff[2x+1]]) and then the states b
	// with δ(x,b) non-null (up to nonNullOff[2x+2]): the only row and
	// column sums a move into or out of x changes.
	nonNull    []protocol.State
	nonNullOff []int32
	// twin[x] is the least state whose two non-null lists equal x's: its
	// null twin. A move between twins changes no row or column sum and
	// not nullW (see move).
	twin []protocol.State
	// lnQ caches ln(nullW/W) for Step's geometric skip, computed at the
	// null weight lnQFor; twin moves leave nullW, and so lnQ, unchanged.
	lnQ    float64
	lnQFor int64

	interactions uint64
	productive   uint64
}

// New builds a Sim with n agents in the protocol's initial state, drawing
// randomness from seed.
func New(p protocol.Protocol, n int, seed uint64) (*Sim, error) {
	counts := make([]int, p.NumStates())
	counts[p.InitialState()] = n
	return FromCounts(p, counts, seed)
}

// FromCounts builds a Sim from an explicit count vector.
func FromCounts(p protocol.Protocol, counts []int, seed uint64) (*Sim, error) {
	S := p.NumStates()
	if len(counts) != S {
		return nil, fmt.Errorf("countsim: counts has %d entries, protocol has %d states", len(counts), S)
	}
	n := 0
	for _, c := range counts {
		if c < 0 {
			return nil, errors.New("countsim: negative count")
		}
		n += c
	}
	if n < 2 {
		return nil, fmt.Errorf("countsim: need n >= 2, got %d", n)
	}
	s := &Sim{
		proto:    p,
		S:        S,
		n:        n,
		rand:     rng.New(seed),
		counts:   append([]int(nil), counts...),
		nullPair: make([]bool, S*S),
		result:   make([]protocol.Pair, S*S),
		rowSum:   make([]int64, S),
		colSum:   make([]int64, S),
	}
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			out, _ := p.Delta(protocol.State(a), protocol.State(b))
			s.result[a*S+b] = out
			s.nullPair[a*S+b] = int(out.P) == a && int(out.Q) == b
		}
	}
	nonNullCells := 0
	for _, null := range s.nullPair {
		if !null {
			nonNullCells++
		}
	}
	s.nonNull = make([]protocol.State, 0, 2*nonNullCells)
	s.nonNullOff = make([]int32, 1, 2*S+1)
	for x := 0; x < S; x++ {
		for a := 0; a < S; a++ {
			if !s.nullPair[a*S+x] {
				s.nonNull = append(s.nonNull, protocol.State(a))
			}
		}
		s.nonNullOff = append(s.nonNullOff, int32(len(s.nonNull)))
		for b := 0; b < S; b++ {
			if !s.nullPair[x*S+b] {
				s.nonNull = append(s.nonNull, protocol.State(b))
			}
		}
		s.nonNullOff = append(s.nonNullOff, int32(len(s.nonNull)))
	}
	s.twin = twinIDs(s.nonNull, s.nonNullOff, 2)
	s.nullW = s.auditNullWeight()
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			if s.nullPair[a*S+b] {
				s.rowSum[a] += int64(s.counts[b])
				s.colSum[b] += int64(s.counts[a])
			}
		}
	}
	return s, nil
}

// twinIDs groups the states whose per consecutive segments of lines are
// all equal — state x's segments are delimited by off[per*x : per*x+per+1]
// — and returns each state's group id, the least state of its group. Each
// state is hashed over its segments into an open-addressing table of
// group representatives, and a probe counts as a hit only once the
// segments compare equal, so the cost is linear in len(lines) rather
// than the O(S·len(lines)) of comparing every pair of states.
func twinIDs(lines []protocol.State, off []int32, per int) []protocol.State {
	S := (len(off) - 1) / per
	mask := uint64(1)
	for mask < uint64(2*S) {
		mask <<= 1
	}
	mask--
	reps := make([]protocol.State, mask+1) // a representative state plus one; 0 is empty (S <= MaxStates)
	ids := make([]protocol.State, S)
	for x := range ids {
		seg := off[per*x : per*x+per+1]
		h := uint64(14695981039346656037) // FNV-1a over segment lengths and entries
		for _, end := range seg[1:] {
			h = (h ^ uint64(end-seg[0])) * 1099511628211
		}
		for _, y := range lines[seg[0]:seg[per]] {
			h = (h ^ uint64(y)) * 1099511628211
		}
		i := (h ^ h>>32) & mask // the high half mixes every bit of every entry
		for reps[i] != 0 && !sameSegments(lines, off[per*int(reps[i]-1):][:per+1], seg) {
			i = (i + 1) & mask
		}
		if reps[i] == 0 {
			reps[i] = protocol.State(x) + 1
		}
		ids[x] = reps[i] - 1
	}
	return ids
}

// sameSegments reports whether the segments of lines delimited by the
// offsets a and b have the same lengths and entries.
func sameSegments(lines []protocol.State, a, b []int32) bool {
	for j := range a {
		if a[j]-a[0] != b[j]-b[0] {
			return false
		}
	}
	return slices.Equal(lines[a[0]:a[len(a)-1]], lines[b[0]:b[len(b)-1]])
}

// auditNullWeight recomputes the null weight from scratch in O(S²); used
// at construction and by tests.
func (s *Sim) auditNullWeight() int64 {
	var w int64
	for a := 0; a < s.S; a++ {
		ca := int64(s.counts[a])
		if ca == 0 {
			continue
		}
		for b := 0; b < s.S; b++ {
			if !s.nullPair[a*s.S+b] {
				continue
			}
			cb := int64(s.counts[b])
			if b == a {
				cb--
			}
			if cb > 0 {
				w += ca * cb
			}
		}
	}
	return w
}

// move moves t agents from state x to state y (any magnitude and either
// sign — the batched engine applies whole cells at once), maintaining
// nullW, rowSum and colSum from the non-null lists of x and y alone.
// Between twins, x == y included, it moves only the counts.
//
// Derivation: with B = Σ_{null(a,b)} c_a·c_b and D = Σ_{null(a,a)} c_a,
// nullW = B − D. With d_s = [null(s,s)] and n_xy = [null(x,y)], moving t
// agents changes
//
//	B by t·(rowSum[y] + colSum[y] − rowSum[x] − colSum[x]) + t²·(d_x + d_y − n_xy − n_yx)
//	D by t·(d_y − d_x)
//
// where the sums are taken BEFORE the update. rowSum[a] moves by
// t·([null(a,y)] − [null(a,x)]), which is zero unless δ(a,x) or δ(a,y)
// is non-null; likewise colSum[b].
//
// Twins: x and y are twins when their non-null lists are equal, that is
// null(a,x) = null(a,y) and null(x,b) = null(y,b) for every a and b.
// Taking a = x, b = y and a = y gives d_x = n_xy = d_y = n_yx, and the
// equal rows and columns give rowSum[x] = rowSum[y] and colSum[x] =
// colSum[y]. So B and D do not change, and neither does any rowSum[a] or
// colSum[b]. Algorithm 1's parity flips initial ↔ initial' (rules 1–4)
// and its m_i → m_(i+1) climbs (rule 6) are twin moves.
func (s *Sim) move(x, y int, t int64) {
	s.counts[x] -= int(t)
	s.counts[y] += int(t)
	if s.twin[x] == s.twin[y] || t == 0 {
		return
	}
	rowSum, colSum := s.rowSum, s.colSum
	dx, dy := s.null(x, x), s.null(y, y)
	s.nullW += t*(rowSum[y]+colSum[y]-rowSum[x]-colSum[x]) +
		t*t*(dx+dy-s.null(x, y)-s.null(y, x)) + t*(dx-dy)
	ox, oy := s.nonNullOff[2*x:2*x+3], s.nonNullOff[2*y:2*y+3]
	for _, a := range s.nonNull[ox[0]:ox[1]] {
		rowSum[a] += t
	}
	for _, a := range s.nonNull[oy[0]:oy[1]] {
		rowSum[a] -= t
	}
	for _, b := range s.nonNull[ox[1]:ox[2]] {
		colSum[b] += t
	}
	for _, b := range s.nonNull[oy[1]:oy[2]] {
		colSum[b] -= t
	}
}

// null returns 1 if δ(a,b) is the identity, else 0.
func (s *Sim) null(a, b int) int64 {
	if s.nullPair[a*s.S+b] {
		return 1
	}
	return 0
}

// N returns the population size.
func (s *Sim) N() int { return s.n }

// Counts returns a copy of the count vector.
func (s *Sim) Counts() []int { return append([]int(nil), s.counts...) }

// CountsView returns the live count vector; callers must not modify it.
func (s *Sim) CountsView() []int { return s.counts }

// Interactions returns total scheduled interactions, nulls included.
func (s *Sim) Interactions() uint64 { return s.interactions }

// Productive returns the number of state-changing interactions.
func (s *Sim) Productive() uint64 { return s.productive }

// NullWeight exposes the current ordered null weight (for tests/metrics).
func (s *Sim) NullWeight() int64 { return s.nullW }

// prodRow returns the productive ordered weight with initiator a:
// c_a·(n−1) − c_a·(rowSum[a] − [null(a,a)]).
func (s *Sim) prodRow(a int) int64 {
	ca := int64(s.counts[a])
	if ca == 0 {
		return 0
	}
	null := s.rowSum[a]
	if s.nullPair[a*s.S+a] {
		null--
	}
	return ca * (int64(s.n-1) - null)
}

// ErrDead is returned by Step when no productive interaction exists (the
// configuration is quiescent).
var ErrDead = errors.New("countsim: configuration is quiescent")

// Step advances to the NEXT PRODUCTIVE interaction: it samples the length
// of the preceding null run geometrically, adds it to the interaction
// counter, then samples and applies one productive ordered pair from the
// exact conditional distribution. It returns the applied transition.
func (s *Sim) Step() (from, to protocol.Pair, err error) {
	W := int64(s.n) * int64(s.n-1)
	prodW := W - s.nullW
	if prodW <= 0 {
		return from, to, ErrDead
	}
	if s.nullW > 0 {
		// K ~ Geometric: P(K = j) = q^j·(1−q) with q = nullW/W;
		// inverse-CDF sampling via K = ⌊ln U / ln q⌋.
		if s.nullW != s.lnQFor {
			s.lnQ = math.Log(float64(s.nullW) / float64(W))
			s.lnQFor = s.nullW
		}
		u := s.rand.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		s.interactions += uint64(math.Log(u) / s.lnQ)
	}
	s.interactions++
	s.productive++

	// Initiator a with weight prodRow(a), then responder b | a with weight
	// c_b − [b = a] over productive (a, b).
	target := int64(s.rand.Uint64n(uint64(prodW)))
	for a := 0; a < s.S; a++ {
		row := s.prodRow(a)
		if row == 0 {
			continue
		}
		if target >= row {
			target -= row
			continue
		}
		ca := int64(s.counts[a])
		inner := target / ca // responder offset: weights are ca·cb, so divide out ca
		base := a * s.S
		for b := 0; b < s.S; b++ {
			if s.nullPair[base+b] {
				continue
			}
			cb := int64(s.counts[b])
			if b == a {
				cb--
			}
			if cb <= 0 {
				continue
			}
			if inner < cb {
				return s.apply(a, b)
			}
			inner -= cb
		}
		return from, to, errors.New("countsim: responder sampling fell through")
	}
	return from, to, errors.New("countsim: initiator sampling fell through")
}

func (s *Sim) apply(a, b int) (protocol.Pair, protocol.Pair, error) {
	out := s.result[a*s.S+b]
	s.move(a, int(out.P), 1)
	s.move(b, int(out.Q), 1)
	return protocol.Pair{P: protocol.State(a), Q: protocol.State(b)}, out, nil
}

// RunUntil advances productive steps until pred(counts) reports true or
// the interaction cap is exceeded; it reports whether pred fired. A
// quiescent configuration returns pred's final verdict.
func (s *Sim) RunUntil(pred func(counts []int) bool, maxInteractions uint64) (bool, error) {
	return s.RunUntilCtx(nil, pred, maxInteractions)
}

// ctxPollMask sets the cancellation-poll cadence of RunUntilCtx: the
// context is consulted every 256 productive steps. Productive steps cost
// O(S) each, so the poll itself is noise; null runs between them are
// skipped in O(1) and never delay a poll by more than one step.
const ctxPollMask = 1<<8 - 1

// RunUntilCtx is RunUntil with cancellation: a nil ctx behaves exactly
// like RunUntil; otherwise ctx is polled every few hundred productive
// steps and a fired context aborts the run with ctx.Err(). The counters
// retain the progress made, so a caller may capture or resume.
func (s *Sim) RunUntilCtx(ctx context.Context, pred func(counts []int) bool, maxInteractions uint64) (bool, error) {
	if pred(s.counts) {
		return true, nil
	}
	var polls uint
	for s.interactions < maxInteractions {
		if ctx != nil {
			if polls&ctxPollMask == 0 {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			polls++
		}
		if _, _, err := s.Step(); err != nil {
			if errors.Is(err, ErrDead) {
				return pred(s.counts), nil
			}
			return false, err
		}
		if pred(s.counts) {
			return true, nil
		}
	}
	return false, nil
}
