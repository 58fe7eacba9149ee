package core

import (
	"fmt"

	"repro/internal/protocol"
)

// RuleKind identifies which of Algorithm 1's ten rule families an observed
// transition belongs to. Tallying these over an execution quantifies the
// paper's Section 5.2 explanation of the exponential-in-k time: as k
// grows, m-heads collide (rule 8) before finishing a chain, and the
// demolition work (rules 8–10) plus the redone construction dominates.
type RuleKind uint8

// The rule families of Algorithm 1, plus Null for encounters with no rule.
const (
	RuleNull RuleKind = iota // no applicable rule
	Rule1                    // (initial, initial) -> (initial', initial')
	Rule2                    // (initial', initial') -> (initial, initial)
	Rule3                    // (d_i, ini) -> (d_i, flipped)
	Rule4                    // (g_i, ini) -> (g_i, flipped)
	Rule5                    // (initial, initial') -> (g1, m2)   [or (g1, g2) at k=2]
	Rule6                    // (ini, m_i) -> (g_i, m_(i+1))
	Rule7                    // (ini, m_(k-1)) -> (g_(k-1), g_k)
	Rule8                    // (m_i, m_j) -> (d_(i-1), d_(j-1))
	Rule9                    // (d_i, g_i) -> (d_(i-1), initial)
	Rule10                   // (d_1, g_1) -> (initial, initial)
	numRuleKinds
)

// String names the rule family.
func (r RuleKind) String() string {
	if r == RuleNull {
		return "null"
	}
	if r < numRuleKinds {
		return fmt.Sprintf("rule%d", r)
	}
	return fmt.Sprintf("RuleKind(%d)", uint8(r))
}

// NumRuleKinds is the number of RuleKind values (including RuleNull).
const NumRuleKinds = int(numRuleKinds)

// ClassifyPair returns the rule family that fires when states (a, b)
// interact in that order. The classification is derived from the states
// themselves, not from δ's output, and the tests cross-check it against
// the table on every ordered pair.
func (p *Protocol) ClassifyPair(a, b protocol.State) RuleKind {
	ka, ia := p.Decode(a)
	kb, ib := p.Decode(b)
	// Normalize so the "structured" participant comes first for mixed
	// pairs; the rule families are unordered.
	switch {
	case ka == KindInitial && kb == KindInitial:
		return Rule1
	case ka == KindInitialBar && kb == KindInitialBar:
		return Rule2
	case (ka == KindInitial && kb == KindInitialBar) || (ka == KindInitialBar && kb == KindInitial):
		return Rule5
	}
	free := func(k Kind) bool { return k == KindInitial || k == KindInitialBar }
	switch {
	case ka == KindD && free(kb):
		return Rule3
	case kb == KindD && free(ka):
		return Rule3
	case ka == KindG && free(kb):
		return Rule4
	case kb == KindG && free(ka):
		return Rule4
	case ka == KindM && free(kb), kb == KindM && free(ka):
		lvl := ia
		if kb == KindM {
			lvl = ib
		}
		if lvl == p.k-1 {
			return Rule7
		}
		return Rule6
	case ka == KindM && kb == KindM:
		return Rule8
	case ka == KindD && kb == KindG, ka == KindG && kb == KindD:
		di, gi := ia, ib
		if ka == KindG {
			di, gi = ib, ia
		}
		if di != gi {
			return RuleNull
		}
		if di == 1 {
			return Rule10
		}
		return Rule9
	}
	return RuleNull
}

// Tally counts rule-family firings along an execution. It is not a
// sim.Hook: a replayed trace feeds it one Observe call per encounter,
// null ones included; a caller that observes only the productive
// encounters (kpart run, which keeps sim.Run's fused loop) adds the null
// count to Counts[RuleNull] from the run's Result.
type Tally struct {
	p *Protocol
	// Counts[kind] is the number of interactions classified as kind.
	Counts [NumRuleKinds]uint64
}

// NewTally returns a Tally for p.
func NewTally(p *Protocol) *Tally { return &Tally{p: p} }

// Observe classifies one interaction between states (a, b), counts it
// and returns its family.
func (t *Tally) Observe(a, b protocol.State) RuleKind {
	kind := t.p.ClassifyPair(a, b)
	t.Counts[kind]++
	return kind
}

// Total returns the total number of observed interactions.
func (t *Tally) Total() uint64 {
	var sum uint64
	for _, c := range t.Counts {
		sum += c
	}
	return sum
}

// DemolitionFraction returns the fraction of PRODUCTIVE interactions spent
// on the demolition machinery (rules 8, 9, 10) — the overhead the basic
// strategy of Section 3.1 does not have and the exponential blow-up of
// Figure 6 is made of.
func (t *Tally) DemolitionFraction() float64 {
	productive := t.Total() - t.Counts[RuleNull]
	if productive == 0 {
		return 0
	}
	demo := t.Counts[Rule8] + t.Counts[Rule9] + t.Counts[Rule10]
	return float64(demo) / float64(productive)
}
