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
	// with δ(x,b) non-null (up to nonNullOff[2x+2]): the entries adjust
	// takes back after adding a count change to every row and column sum.
	nonNull    []protocol.State
	nonNullOff []int32

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

// adjust changes state x's count by delta (any magnitude — the batched
// engine applies whole cells at once), maintaining nullW, rowSum and
// colSum in O(S).
//
// Derivation: with B = Σ_{null(a,b)} c_a·c_b and D = Σ_{null(a,a)} c_a,
// nullW = B − D. Changing c_x by δ changes
//
//	B by δ·(colSum[x] + rowSum[x]) + δ²·[null(x,x)]
//	D by δ·[null(x,x)]
//
// where the sums are taken BEFORE the update.
func (s *Sim) adjust(x int, delta int64) {
	rowSum, colSum := s.rowSum, s.colSum[:len(s.rowSum)]
	diag := int64(0)
	if s.nullPair[x*s.S+x] {
		diag = 1
	}
	s.nullW += delta*(colSum[x]+rowSum[x]) + delta*delta*diag - delta*diag
	s.counts[x] += int(delta)
	// rowSum[a] moves by delta for every a with null(a,x), colSum[b] for
	// every b with null(x,b). Most cells are null, so add delta densely
	// and take it back from the short non-null lists.
	for a := range rowSum {
		rowSum[a] += delta
		colSum[a] += delta
	}
	off := s.nonNullOff[2*x : 2*x+3]
	for _, a := range s.nonNull[off[0]:off[1]] {
		rowSum[a] -= delta
	}
	for _, b := range s.nonNull[off[1]:off[2]] {
		colSum[b] -= delta
	}
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
		q := float64(s.nullW) / float64(W)
		u := s.rand.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		s.interactions += uint64(math.Log(u) / math.Log(q))
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
	from := protocol.Pair{P: protocol.State(a), Q: protocol.State(b)}
	// adjust is exact, so an agent the rule leaves in its state (a flip
	// moves only one of the two) needs no −1/+1 pair of updates.
	if p := int(out.P); p != a {
		s.adjust(a, -1)
		s.adjust(p, +1)
	}
	if q := int(out.Q); q != b {
		s.adjust(b, -1)
		s.adjust(q, +1)
	}
	return from, out, nil
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
