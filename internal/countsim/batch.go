// batch.go implements the batched count engine: instead of advancing one
// productive interaction at a time, it draws the number of interactions
// landing on each ordered state pair over a whole window of scheduled
// interactions and applies the protocol's rules in bulk, re-checking the
// invariants only at batch boundaries. Cost per batch is O(S²) plus the
// sampler walks, independent of the window length, which puts n = 10⁸–10⁹
// runs within reach of one core.
//
// Two batching modes share the Batch type:
//
//   - Fixed-size matching mode (BatchOptions.Size > 0): every batch draws a
//     uniformly random set of Size DISJOINT ordered agent pairs — initiator
//     multiset ~ multivariate hypergeometric over the counts, responder
//     multiset ~ multivariate hypergeometric over the remainder, and a
//     uniform bijection between them via conditional hypergeometric rows.
//     Disjoint pairs commute, so applying them in bulk equals applying them
//     sequentially in any order: every configuration this mode visits is
//     sequentially reachable, exactly, and each of the Size pairs is
//     marginally a uniform ordered pair — E[draws on cell (a,b)] is exactly
//     Size·c_a·(c_b−[a=b])/(n(n−1)), which the chi-square tests pin down.
//     At Size = 1 the mode reproduces the sequential engine's law
//     interaction for interaction. Requires 2·Size ≤ n.
//
//   - Adaptive aggregate mode (Size == 0): the window length m is chosen so
//     the expected number of PROGRESS interactions per batch stays small
//     relative to the states participating in them, where a progress cell
//     is any non-null cell that is not a flip cell. Flip cells — those of
//     the shape δ(a,b) = (a,b′) with δ(a,b′) = (a,b), i.e. Algorithm 1's
//     rules 3/4 toggling a free agent's bar — form two-state orbits whose
//     within-batch dynamics are a per-agent two-state Markov chain with
//     rates frozen at the batch start; the engine resamples each orbit's
//     occupancy from the closed-form m-step transition probabilities
//     instead of enumerating the (overwhelmingly dominant) flip events.
//     Progress events are drawn as Binomial(m, progW/W), spread over
//     progress cells by a conditional-binomial multinomial chain, and
//     applied with availability clamping (outputs of a batch are not
//     reusable as inputs within it). This mode is an aggregate
//     approximation — exact in the per-cell means and in every invariant,
//     approximate in within-batch interleaving — with the accuracy
//     contract validated by the differential and statistical tests in
//     batch_test.go. When the proposed window is shorter than
//     SeqThreshold the engine takes exact sequential steps instead
//     (final-approach mode), so small populations and endgames degrade to
//     the exact engine automatically.
//
// Both modes re-run the O(S²) null-weight audit and the optional Check
// hook at every batch boundary, and adaptive mode audits the weight
// decomposition (progW + flipW + nullW = n(n−1)) before every batch.
//
// Final-approach steps are audited just as often but cost O(S), not
// O(S²): when the engine falls back it opens a shadow — a copy of the
// counts plus their from-scratch null, flip and progress weights — and
// after each sequential step updates those weights exactly from the
// states whose counts moved (see syncShadow). By induction from that full
// recompute the shadow's null weight is the O(S²) audit's value, so every
// step still checks the incremental null weight against it, checks the
// decomposition, and runs Check; the window policy reads the same weights
// and makes bit for bit the decisions the full scan would. States with
// the same null, flip and progress cells in their rows and columns (class
// twins, like initial and initial') share their line sums, so a flip
// between them updates the weights without summing a line. At the
// paper's Figure 6 point (n = 960, k = 8), where nearly every step is a
// final-approach step, a fallback step costs 3.2–3.6× a Sim.Step and a
// batch trial 2.3–2.8× a count-engine trial; the rest of the step is its
// O(S) pass and Check.
package countsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/protocol"
)

// DefaultSeqThreshold is the adaptive mode's final-approach cutoff: when
// the policy proposes a batch covering fewer scheduled interactions than
// this, the engine takes exact sequential steps instead. At that span the
// geometric null-skip of the sequential engine is already doing the same
// O(1)-per-productive-step work without the aggregate approximation.
const DefaultSeqThreshold = 4096

// Adaptive-policy constants. These are frozen, not tunables: they decide
// how many stream draws a batch consumes, so changing them changes every
// seeded trajectory.
const (
	// targetDivisor bounds expected progress events per batch to
	// (participating agents)/targetDivisor, keeping per-cell draws small
	// against the availabilities they consume.
	targetDivisor = 16
	// maxTargetProgress caps per-batch progress draws so a single batch's
	// sampling work stays bounded (and with it the cancellation-poll
	// latency of RunUntilCtx).
	maxTargetProgress = 1 << 22
)

// BatchOptions configures a Batch engine.
type BatchOptions struct {
	// Size, when positive, selects fixed-size matching mode: every batch
	// draws exactly Size disjoint ordered agent pairs (2·Size ≤ n
	// required). Zero selects adaptive aggregate mode.
	Size uint64
	// SeqThreshold overrides the adaptive final-approach cutoff: proposed
	// windows shorter than this many interactions run as exact sequential
	// steps. Zero means DefaultSeqThreshold; a negative value disables the
	// fallback entirely (used by tests to force aggregate batching on tiny
	// populations). Ignored in matching mode.
	SeqThreshold int64
	// Check, when non-nil, is invoked with the live count vector at every
	// batch boundary and after every fallback step, each time right after
	// the null-weight audit (O(S²) at a batch boundary, O(S) after a
	// fallback step); a non-nil error aborts the run. The harness installs
	// the protocol's Lemma 1 invariant here.
	Check func(counts []int) error
}

// Cell shapes for the adaptive mode's static classification.
const (
	shapeNone      uint8 = iota
	shapeResponder       // δ(a,b) = (a,b′): responder toggles b ↔ b′
	shapeInitiator       // δ(a,b) = (a′,b): initiator toggles a ↔ a′
)

// Cell classes of the adaptive mode's weight decomposition; they index the
// final-approach shadow's class weights.
const (
	classNull uint8 = iota
	classFlip
	classProg
)

// Batch is a batched count engine wrapping the sequential Sim. Not safe
// for concurrent use.
type Batch struct {
	sim  *Sim
	opts BatchOptions

	// Static classification (adaptive mode).
	flipShape []uint8 // S*S; shape of each flip-classified cell
	flipCells []int   // flat indices of flip cells, ascending
	progCells []int   // flat indices of progress (non-null, non-flip) cells
	orbits    [][2]int

	// progState is per-batch scratch: marks states participating in a
	// progress cell with positive weight this batch.
	progState []bool

	// Per-batch scratch, allocated once.
	progWeights []int64 // weight of progCells[j] this batch
	progDraws   []int64
	rates       []int64 // per-state per-agent flip pair counts R[x]
	avail       []int64
	scrA        []int64 // scrA, scrB, scrRow and pairDraws: matching mode only
	scrB        []int64
	scrRow      []int64
	pairDraws   []int64 // last batch's per-cell draw counts

	// Final-approach shadow (adaptive mode), allocated when the engine first
	// falls back. While it takes exact sequential steps, the engine keeps
	// the counts as of the last step and, exactly, their null, flip and
	// progress weights, per-state live progress cells and window-policy
	// inputs, updated in O(S) per step by syncShadow instead of the O(S²)
	// scan and audit.
	shadowOn bool
	shCounts []int64
	shW      [3]int64 // class weights, indexed by class
	shLive   []int64  // per state: live progress cells it is in (a diagonal cell counts twice)
	shPA     int64    // agents in states with a live progress cell
	shCmax   int64    // largest count among those states
	shDiag   int64    // agents in states whose diagonal cell is null
	// cellClass is the class of each cell; lines lists, for each state x,
	// the other ends of the flip cells in column x, the flip cells in row
	// x, the progress cells in column x and the progress cells in row x:
	// segment j of x is lines[lineOff[4x+j]:lineOff[4x+j+1]].
	cellClass []uint8
	lines     []protocol.State
	lineOff   []int32
	// classTwin[x] is the least state whose four segments of lines equal
	// x's: class twins have the same flip, progress and null cells in
	// their rows and columns, so the same line sums.
	classTwin []protocol.State
	touched   []int   // syncShadow scratch: states whose count moved
	crossed   []bool  // syncShadow scratch: states whose count crossed 0, 1 or 2
	net       []int64 // syncShadow scratch: net count change per class-twin group

	// Introspection counters.
	batches  uint64
	seqSteps uint64
	clamped  uint64
}

// NewBatch builds a batched engine with n agents in the protocol's initial
// state.
func NewBatch(p protocol.Protocol, n int, seed uint64, opts BatchOptions) (*Batch, error) {
	counts := make([]int, p.NumStates())
	counts[p.InitialState()] = n
	return BatchFromCounts(p, counts, seed, opts)
}

// BatchFromCounts builds a batched engine from an explicit count vector.
func BatchFromCounts(p protocol.Protocol, counts []int, seed uint64, opts BatchOptions) (*Batch, error) {
	s, err := FromCounts(p, counts, seed)
	if err != nil {
		return nil, err
	}
	// Divide n rather than double the size: 2·size wraps for sizes of
	// 2⁶³ and above, and the sampler would then draw past the population.
	if opts.Size > 0 && opts.Size > uint64(s.n)/2 {
		return nil, fmt.Errorf("countsim: matching batch size %d needs 2·size <= n = %d", opts.Size, s.n)
	}
	if opts.SeqThreshold == 0 {
		opts.SeqThreshold = DefaultSeqThreshold
	}
	b := &Batch{sim: s, opts: opts}
	b.classify()
	S := s.S
	b.progWeights = make([]int64, len(b.progCells))
	b.progDraws = make([]int64, len(b.progCells))
	b.rates = make([]int64, S)
	b.avail = make([]int64, S)
	if opts.Size > 0 {
		b.scrA = make([]int64, S)
		b.scrB = make([]int64, S)
		b.scrRow = make([]int64, S)
		b.pairDraws = make([]int64, S*S)
	}
	return b, nil
}

// classify splits the non-null cells into flip cells (two-state toggle
// orbits aggregated in closed form) and progress cells (sampled
// discretely). Flip-shaped cells whose toggle partners are inconsistent
// across cells — possible for protocols other than Algorithm 1 — are
// conservatively demoted to progress cells.
func (b *Batch) classify() {
	s := b.sim
	S := s.S
	b.flipShape = make([]uint8, S*S)
	b.progState = make([]bool, S)
	cand := make([]int, S) // candidate toggle partner per state
	for i := range cand {
		cand[i] = -1
	}
	conflict := make([]bool, S)
	propose := func(x, y int) {
		if cand[x] == -1 {
			cand[x] = y
		} else if cand[x] != y {
			conflict[x] = true
		}
	}
	for a := 0; a < S; a++ {
		for q := 0; q < S; q++ {
			i := a*S + q
			if s.nullPair[i] {
				continue
			}
			out := s.result[i]
			if int(out.P) == a && int(out.Q) != q {
				back := s.result[a*S+int(out.Q)]
				if int(back.P) == a && int(back.Q) == q {
					b.flipShape[i] = shapeResponder
					propose(q, int(out.Q))
				}
			} else if int(out.Q) == q && int(out.P) != a {
				back := s.result[int(out.P)*S+q]
				if int(back.P) == a && int(back.Q) == q {
					b.flipShape[i] = shapeInitiator
					propose(a, int(out.P))
				}
			}
		}
	}
	orbitOK := func(x int) bool {
		return cand[x] >= 0 && !conflict[x] &&
			cand[cand[x]] == x && !conflict[cand[x]]
	}
	for a := 0; a < S; a++ {
		for q := 0; q < S; q++ {
			i := a*S + q
			if s.nullPair[i] {
				continue
			}
			flipping := -1
			switch b.flipShape[i] {
			case shapeResponder:
				flipping = q
			case shapeInitiator:
				flipping = a
			}
			if flipping >= 0 && orbitOK(flipping) {
				b.flipCells = append(b.flipCells, i)
			} else {
				b.flipShape[i] = shapeNone
				b.progCells = append(b.progCells, i)
			}
		}
	}
	for x := 0; x < S; x++ {
		if orbitOK(x) && x < cand[x] {
			b.orbits = append(b.orbits, [2]int{x, cand[x]})
		}
	}
}

// N returns the population size.
func (b *Batch) N() int { return b.sim.n }

// Counts returns a copy of the count vector.
func (b *Batch) Counts() []int { return b.sim.Counts() }

// CountsView returns the live count vector; callers must not modify it.
func (b *Batch) CountsView() []int { return b.sim.counts }

// Interactions returns total scheduled interactions, nulls included.
func (b *Batch) Interactions() uint64 { return b.sim.interactions }

// Productive returns state-changing interactions: bulk-applied progress
// events, flip events, and fallback steps alike.
func (b *Batch) Productive() uint64 { return b.sim.productive }

// NullWeight exposes the current ordered null weight.
func (b *Batch) NullWeight() int64 { return b.sim.nullW }

// Batches returns how many bulk batches have been applied.
func (b *Batch) Batches() uint64 { return b.batches }

// SeqSteps returns how many exact sequential fallback steps were taken.
func (b *Batch) SeqSteps() uint64 { return b.seqSteps }

// Clamped returns how many drawn progress events were dropped by
// availability clamping in aggregate mode (always 0 in matching mode).
func (b *Batch) Clamped() uint64 { return b.clamped }

// PairDraws returns, for the most recent matching-mode batch, how many of
// its pairs landed on each ordered state cell (flat a*S+b indexing, a copy).
// It returns nil if the engine is not in matching mode. The chi-square
// tests compare these against the exact per-cell expectations.
func (b *Batch) PairDraws() []int64 {
	if b.opts.Size == 0 {
		return nil
	}
	return append([]int64(nil), b.pairDraws...)
}

// Step advances one batch (or, in adaptive final-approach, one exact
// sequential step). It returns ErrDead if no state change can ever occur.
func (b *Batch) Step() error {
	return b.step(1 << 62)
}

// step advances one batch without letting the interaction counter pass
// limit. Callers guarantee interactions < limit.
func (b *Batch) step(limit uint64) error {
	if b.opts.Size > 0 {
		return b.stepMatching(limit)
	}
	return b.stepAggregate(limit)
}

// boundary re-checks the invariants that bulk application must preserve.
func (b *Batch) boundary() error {
	s := b.sim
	if got := s.auditNullWeight(); got != s.nullW {
		return nullAuditError(s.nullW, got)
	}
	return b.check()
}

// nullAuditError reports an incremental null weight that disagrees with
// its recompute.
func nullAuditError(incremental, recomputed int64) error {
	return fmt.Errorf("countsim: batch null-weight audit failed: incremental %d, recomputed %d", incremental, recomputed)
}

// check runs the optional Check hook on the live counts.
func (b *Batch) check() error {
	if b.opts.Check != nil {
		return b.opts.Check(b.sim.counts)
	}
	return nil
}

// auditDecomposition checks that the progress and flip weights and the
// incremental null weight add up to every ordered pair, n(n−1).
func (b *Batch) auditDecomposition(progW, flipW int64) error {
	s := b.sim
	if W := int64(s.n) * int64(s.n-1); progW+flipW != W-s.nullW {
		return fmt.Errorf("countsim: batch weight decomposition audit failed: progress %d + flip %d != total %d - null %d",
			progW, flipW, W, s.nullW)
	}
	return nil
}

// stepMatching draws one fixed-size batch of disjoint ordered pairs and
// applies every cell literally.
func (b *Batch) stepMatching(limit uint64) error {
	s := b.sim
	S := s.S
	if int64(s.n)*int64(s.n-1)-s.nullW <= 0 {
		return ErrDead
	}
	m := b.opts.Size
	if rem := limit - s.interactions; m > rem {
		m = rem
	}
	c64 := b.scrA
	for i, c := range s.counts {
		c64[i] = int64(c)
	}
	u := b.avail // initiator multiset
	s.rand.MultivariateHypergeometric(int64(m), c64, u)
	for i := range c64 {
		b.scrB[i] = c64[i] - u[i]
	}
	v := b.rates // responder multiset, consumed row by row
	s.rand.MultivariateHypergeometric(int64(m), b.scrB, v)
	for i := range b.pairDraws {
		b.pairDraws[i] = 0
	}
	for a := 0; a < S; a++ {
		if u[a] == 0 {
			continue
		}
		s.rand.MultivariateHypergeometric(u[a], v, b.scrRow)
		base := a * S
		for q := 0; q < S; q++ {
			t := b.scrRow[q]
			if t == 0 {
				continue
			}
			v[q] -= t
			b.pairDraws[base+q] = t
			if s.nullPair[base+q] {
				continue
			}
			out := s.result[base+q]
			s.move(a, int(out.P), t)
			s.move(q, int(out.Q), t)
			s.productive += uint64(t)
		}
	}
	s.interactions += m
	b.batches++
	return b.boundary()
}

// stepAggregate runs one adaptive batch: weight scan, window policy,
// progress draws with clamping, and closed-form orbit resampling.
func (b *Batch) stepAggregate(limit uint64) error {
	s := b.sim
	S := s.S
	W := int64(s.n) * int64(s.n-1)

	if b.shadowOn {
		// Final approach: the shadow holds exactly the weights the scan
		// below would compute, so the policy decides from it in O(S). Once
		// it proposes a batch, the scan takes over and decides the same.
		if want := b.shW[classNull]; s.nullW != want {
			return nullAuditError(s.nullW, want)
		}
		progW, flipW := b.shW[classProg], b.shW[classFlip]
		if err := b.auditDecomposition(progW, flipW); err != nil {
			return err
		}
		if progW+flipW <= 0 {
			return ErrDead
		}
		if progW > 0 && b.sequential(b.window(progW, b.shPA, b.shCmax)) {
			return b.seqStep()
		}
		b.shadowOn = false
	}

	// Weight scan. R[x] counts, per agent currently in state x, the ordered
	// agent pairs whose interaction toggles that agent within its orbit.
	// Alongside the progress weights, record which states currently
	// participate in a live progress cell (pmark) and the largest count
	// appearing in one (cmax) — both feed the window policy below.
	var progW, flipW, cmax int64
	pmark := b.progState
	for i := range pmark {
		pmark[i] = false
	}
	for j, cell := range b.progCells {
		a, q := cell/S, cell%S
		ca, cq := int64(s.counts[a]), int64(s.counts[q])
		if q == a {
			cq--
		}
		var w int64
		if ca > 0 && cq > 0 {
			w = ca * cq
			pmark[a] = true
			pmark[q] = true
			if ca > cmax {
				cmax = ca
			}
			if cq > cmax {
				cmax = cq
			}
		}
		b.progWeights[j] = w
		progW += w
	}
	R := b.rates
	for i := range R {
		R[i] = 0
	}
	for _, cell := range b.flipCells {
		a, q := cell/S, cell%S
		if b.flipShape[cell] == shapeResponder {
			ca := int64(s.counts[a])
			if a == q {
				ca--
			}
			if ca > 0 {
				R[q] += ca
			}
		} else {
			cq := int64(s.counts[q])
			if q == a {
				cq--
			}
			if cq > 0 {
				R[a] += cq
			}
		}
	}
	for x := 0; x < S; x++ {
		flipW += int64(s.counts[x]) * R[x]
	}
	if err := b.auditDecomposition(progW, flipW); err != nil {
		return err
	}
	if progW+flipW <= 0 {
		return ErrDead
	}

	// Window policy.
	remaining := limit - s.interactions
	if remaining > 1<<62 {
		remaining = 1 << 62
	}
	var m uint64
	if progW == 0 {
		// Only flips remain possible; spend the whole budget in one batch.
		m = remaining
	} else {
		var pA int64
		for x := 0; x < S; x++ {
			if pmark[x] {
				pA += int64(s.counts[x])
			}
		}
		mf := b.window(progW, pA, cmax)
		if b.sequential(mf) {
			b.openShadow(progW, flipW)
			return b.seqStep()
		}
		if mf >= float64(remaining) {
			m = remaining
		} else {
			m = uint64(mf)
			if m < 1 {
				m = 1
			}
		}
	}

	// Event draws: progress events first, then flip events among the rest.
	P := s.rand.Binomial(int64(m), float64(progW)/float64(W))
	var F int64
	if flipW > 0 && int64(m) > P {
		F = s.rand.Binomial(int64(m)-P, float64(flipW)/float64(W-progW))
	}
	if P > 0 {
		s.rand.Multinomial(P, b.progWeights, b.progDraws)
		avail := b.avail
		for i, c := range s.counts {
			avail[i] = int64(c)
		}
		for j, cell := range b.progCells {
			t := b.progDraws[j]
			if t == 0 {
				continue
			}
			a, q := cell/S, cell%S
			lim := avail[a]
			if q == a {
				lim = avail[a] / 2
			} else if avail[q] < lim {
				lim = avail[q]
			}
			if t > lim {
				b.clamped += uint64(t - lim)
				t = lim
				if t <= 0 {
					continue
				}
			}
			if q == a {
				avail[a] -= 2 * t
			} else {
				avail[a] -= t
				avail[q] -= t
			}
			out := s.result[cell]
			s.move(a, int(out.P), t)
			s.move(q, int(out.Q), t)
			s.productive += uint64(t)
		}
	}
	s.productive += uint64(F)

	// Orbit resampling: each agent in orbit {x,y} toggles per interaction
	// with probability R[state]/W, a two-state chain whose m-step
	// transition probability is (p_x/(p_x+p_y))·(1−(1−p_x−p_y)^m).
	for _, o := range b.orbits {
		x, y := o[0], o[1]
		px := float64(R[x]) / float64(W)
		py := float64(R[y]) / float64(W)
		sum := px + py
		if sum <= 0 {
			continue
		}
		cx, cy := int64(s.counts[x]), int64(s.counts[y])
		if cx+cy == 0 {
			continue
		}
		var decay float64
		if sum < 1 {
			decay = math.Exp(float64(m) * math.Log1p(-sum))
		}
		pxy := px / sum * (1 - decay)
		pyx := py / sum * (1 - decay)
		newX := s.rand.Binomial(cx, 1-pxy) + s.rand.Binomial(cy, pyx)
		s.move(y, x, newX-cx)
	}

	s.interactions += m
	b.batches++
	return b.boundary()
}

// window is the adaptive policy's proposed batch length in scheduled
// interactions, given the progress weight progW > 0, the agents pA in live
// progress cells and the largest count cmax among them.
func (b *Batch) window(progW, pA, cmax int64) float64 {
	// Per-batch progress budget: small against the agents currently
	// participating in progress cells (pA), and small against the
	// availability of every individual cell — E[draws on cell (a,q)] is
	// targetP·c_a·c_q/progW, so capping targetP at progW/(4·cmax) keeps
	// each cell's expected draws under min(c_a, c_q)/4.
	targetP := pA / targetDivisor
	if cellCap := progW / (4 * cmax); cellCap < targetP {
		targetP = cellCap
	}
	if targetP < 1 {
		targetP = 1
	}
	if targetP > maxTargetProgress {
		targetP = maxTargetProgress
	}
	mf := float64(targetP) * float64(int64(b.sim.n)*int64(b.sim.n-1)) / float64(progW)
	if targetP < 4 {
		// Sparse regime: a window sized at the mean waiting time
		// overshoots the last event by ~58% in expectation (memoryless
		// waits, E[windows to first event] = 1/(1−e⁻¹)). Quarter
		// windows cut the expected overshoot to ~13% for 4× as many
		// (cheap, near-empty) batches.
		mf /= 4
	}
	return mf
}

// sequential reports whether a proposed window is short enough for
// final-approach mode, where the sequential engine's geometric null-skip
// does the same work exactly.
func (b *Batch) sequential(mf float64) bool {
	return b.opts.SeqThreshold > 0 && mf < float64(b.opts.SeqThreshold)
}

// openShadow starts the final-approach shadow from the weight scan that
// just chose to fall back: the live counts, the scan's from-scratch flip
// and progress weights and live cells, and a from-scratch null weight.
func (b *Batch) openShadow(progW, flipW int64) {
	s := b.sim
	S := s.S
	if b.shCounts == nil {
		b.shCounts = make([]int64, S)
		b.shLive = make([]int64, S)
		b.touched = make([]int, 0, S)
		b.crossed = make([]bool, S)
		b.net = make([]int64, S)
		b.buildLines()
	}
	b.shDiag = 0
	for x, c := range s.counts {
		b.shCounts[x] = int64(c)
		b.shLive[x] = 0
		if s.nullPair[x*S+x] {
			b.shDiag += int64(c)
		}
	}
	for j, cell := range b.progCells {
		if b.progWeights[j] > 0 {
			b.shLive[cell/S]++
			b.shLive[cell%S]++
		}
	}
	b.shW = [3]int64{classNull: s.auditNullWeight(), classFlip: flipW, classProg: progW}
	b.shPA, b.shCmax = b.participation()
	b.shadowOn = true
}

// buildLines fills cellClass, lines, lineOff and classTwin from the
// classification.
func (b *Batch) buildLines() {
	s := b.sim
	S := s.S
	b.cellClass = make([]uint8, S*S)
	for i := range b.cellClass {
		switch {
		case s.nullPair[i]:
			b.cellClass[i] = classNull
		case b.flipShape[i] != shapeNone:
			b.cellClass[i] = classFlip
		default:
			b.cellClass[i] = classProg
		}
	}
	b.lines = make([]protocol.State, 0, 2*(len(b.flipCells)+len(b.progCells)))
	b.lineOff = make([]int32, 1, 4*S+1)
	for x := 0; x < S; x++ {
		for _, cls := range [2]uint8{classFlip, classProg} {
			for _, row := range [2]bool{false, true} {
				for y := 0; y < S; y++ {
					cell := y*S + x
					if row {
						cell = x*S + y
					}
					if b.cellClass[cell] == cls {
						b.lines = append(b.lines, protocol.State(y))
					}
				}
				b.lineOff = append(b.lineOff, int32(len(b.lines)))
			}
		}
	}
	b.classTwin = twinIDs(b.lines, b.lineOff, 4)
}

// seqStep takes one exact sequential step of the final approach, brings
// the shadow up to it with its audit, and runs the Check hook.
func (b *Batch) seqStep() error {
	if _, _, err := b.sim.Step(); err != nil {
		return err
	}
	b.seqSteps++
	if err := b.syncShadow(); err != nil {
		return err
	}
	return b.check()
}

// participation recomputes the window policy's pA and cmax from the
// shadow: the agents in states with a live progress cell, and the largest
// count among those states.
func (b *Batch) participation() (pA, cmax int64) {
	for x, l := range b.shLive {
		if l > 0 {
			c := b.shCounts[x]
			pA += c
			cmax = max(cmax, c)
		}
	}
	return pA, cmax
}

// syncShadow brings the shadow up to the live counts and audits the
// incremental null weight against it. It finds the states that moved by
// diffing the live counts against the shadow's copy, never from the
// moves Sim.Step made, and updates each class weight
//
//	F_M(c) = Σ_{a,b} M_ab·c_a·(c_b − [a = b])
//
// over those states' rows and columns only. With o the shadow counts and
// d = c − o,
//
//	ΔF_M = dᵀM·o + oᵀM·d + dᵀM·d − Σ_t M_tt·d_t.
//
// The flip and progress cells of a row or column are the few listed in
// lines; its null cells take the rest of Σo. Row t and column t enter the
// first two terms only through d_t times their class sums, and class
// twins have equal ones, so those terms are summed once per class-twin
// group with a nonzero net change. The T×T term dᵀM·d and the diagonal
// stay per state. A progress cell's liveness (both ends present) changes
// only where a count crosses 0, 1 or 2, so only those states' progress
// cells are re-examined. Cost O(S) per moved group, O(|T|) per moved
// state, plus one O(S) pass that also gathers the audit's sums and the
// window policy's pA and cmax.
//
// The audit: by induction from the full recompute that opened the shadow,
// its null weight equals the O(S²) recompute of auditNullWeight, so
// comparing the incremental nullW against it is exactly as strong. The row
// and column sums that Sim.move keeps and Sim.Step works from must give
// the same weight: Σ_a c_a·rowSum[a] and Σ_b c_b·colSum[b] both equal
// nullW plus shDiag, the agents in states whose diagonal cell is null
// (kept, like the class weights, by induction).
func (b *Batch) syncShadow() error {
	s := b.sim
	S := s.S
	o, live := b.shCounts, b.shLive[:len(b.shCounts)]
	counts := s.counts[:len(o)]
	rowSum, colSum := s.rowSum[:len(o)], s.colSum[:len(o)]
	T := b.touched[:0]
	var total, viaRow, viaCol, pA, cmax int64
	for x, c := range counts {
		c := int64(c)
		total += o[x]
		if c != o[x] {
			T = append(T, x)
		}
		viaRow += c * rowSum[x]
		viaCol += c * colSum[x]
		if live[x] > 0 {
			pA += c
			cmax = max(cmax, c)
		}
	}
	var dW [3]int64
	crossed := false
	net := b.net[:len(o)]
	for _, t := range T {
		d := int64(counts[t]) - o[t]
		net[b.classTwin[t]] += d
		var acc [3]int64
		row := b.cellClass[t*S : t*S+S]
		for _, u := range T {
			acc[row[u]] += int64(counts[u]) - o[u]
		}
		acc[row[t]]--
		for k, v := range acc {
			dW[k] += d * v
		}
		if row[t] == classNull {
			b.shDiag += d
		}
		if min(o[t], 2) != min(int64(counts[t]), 2) {
			b.crossed[t] = true
			crossed = true
		}
	}
	// The line terms dᵀM·o + oᵀM·d, once per class-twin group: its members
	// share every line, so the group's net change weighs one member's line
	// sums, and a flip between class twins sums no line at all.
	for _, t := range T {
		g := b.classTwin[t]
		d := net[g]
		if d == 0 {
			continue
		}
		net[g] = 0
		off := b.lineOff[4*t : 4*t+5]
		flip := lineSum(o, b.lines[off[0]:off[2]])
		prog := lineSum(o, b.lines[off[2]:off[4]])
		dW[classFlip] += d * flip
		dW[classProg] += d * prog
		dW[classNull] += d * (2*total - flip - prog)
	}
	if crossed {
		// A cell with both ends crossed is re-examined once, from its row.
		for _, t := range T {
			if !b.crossed[t] {
				continue
			}
			off := b.lineOff[4*t : 4*t+5]
			for _, q := range b.lines[off[3]:off[4]] {
				b.relive(t, int(q))
			}
			for _, a := range b.lines[off[2]:off[3]] {
				if !b.crossed[a] {
					b.relive(int(a), t)
				}
			}
		}
		for _, t := range T {
			b.crossed[t] = false
		}
	}
	for _, t := range T {
		o[t] = int64(counts[t])
	}
	for k, v := range dW {
		b.shW[k] += v
	}
	if crossed {
		// pA and cmax above read the liveness from before the step.
		pA, cmax = b.participation()
	}
	b.shPA, b.shCmax = pA, cmax

	want := b.shW[classNull]
	if s.nullW != want {
		return nullAuditError(s.nullW, want)
	}
	viaRow -= b.shDiag
	viaCol -= b.shDiag
	if viaRow != want || viaCol != want {
		return fmt.Errorf("countsim: batch null-weight audit failed: row sums give %d, column sums %d, recomputed %d",
			viaRow, viaCol, want)
	}
	return nil
}

// lineSum returns the sum of o over the states in seg.
func lineSum(o []int64, seg []protocol.State) int64 {
	var w int64
	for _, y := range seg {
		w += o[y]
	}
	return w
}

// relive updates the shadow's live-cell counts for the progress cell
// (a, q) between the shadow counts and the live ones.
func (b *Batch) relive(a, q int) {
	diag := int64(0)
	if a == q {
		diag = 1
	}
	was := b.shCounts[a] > 0 && b.shCounts[q]-diag > 0
	if now := b.sim.counts[a] > 0 && int64(b.sim.counts[q])-diag > 0; now != was {
		d := int64(1)
		if was {
			d = -1
		}
		b.shLive[a] += d
		b.shLive[q] += d
	}
}

// RunUntil advances batches until pred(counts) reports true at a boundary
// or the interaction cap is exceeded; it reports whether pred fired. A
// quiescent configuration returns pred's final verdict.
func (b *Batch) RunUntil(pred func(counts []int) bool, maxInteractions uint64) (bool, error) {
	return b.RunUntilCtx(nil, pred, maxInteractions)
}

// RunUntilCtx is RunUntil with cancellation, polled once per batch (and at
// the sequential engine's cadence during final-approach runs, where each
// step is one "batch").
func (b *Batch) RunUntilCtx(ctx context.Context, pred func(counts []int) bool, maxInteractions uint64) (bool, error) {
	s := b.sim
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
		if err := b.step(maxInteractions); err != nil {
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
