package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"time"

	"repro/internal/population"
	"repro/internal/sim"
)

// Progress periodically reports the state of a long run to a writer
// (stderr by default): interactions applied, interaction throughput,
// productive fraction, current group-size spread, and — when a cap is
// known — percent of cap consumed and the wall-clock ETA to the cap at
// the current rate.
//
// Reporting is driven by the interaction count, not wall clock: a report
// is emitted at the first productive encounter at or past each multiple
// of Every. The set of reporting points is therefore deterministic for a
// given seed, so verbose runs stay reproducible line-for-line (only the
// rate/ETA fields depend on the machine). Progress is a sim.Hook that
// ignores null steps (agent engine) and a plain MaybeReport method for
// the count-based engines, which skip null runs and call it after each
// productive step (the batched engine: after each batch).
type Progress struct {
	// W receives report lines; nil means os.Stderr.
	W io.Writer
	// Every is the interaction interval between reports; 0 means
	// DefaultProgressEvery.
	Every uint64
	// Cap, when non-zero, enables the %-of-cap and ETA fields.
	Cap uint64
	// Label prefixes every line (e.g. "n=960 k=8 trial 3").
	Label string

	next  uint64
	start time.Time
	lastT time.Time
	lastI uint64
}

// DefaultProgressEvery is roughly a second of agent-engine work on
// commodity hardware, and short enough that even mid-sized runs report.
const DefaultProgressEvery = 1 << 21

var _ sim.Hook = (*Progress)(nil)

// Init implements sim.Hook.
func (p *Progress) Init(pop *population.Population) {
	p.reset(pop.Interactions())
}

// reset arms the reporter starting from the given interaction count.
func (p *Progress) reset(interactions uint64) {
	if p.Every == 0 {
		p.Every = DefaultProgressEvery
	}
	p.start = time.Now()
	p.lastT = p.start
	p.lastI = interactions
	p.next = p.nextAfter(interactions)
}

// nextAfter returns the least multiple of Every above interactions, or
// 2⁶⁴ − 1 when that multiple does not fit in a uint64.
func (p *Progress) nextAfter(interactions uint64) uint64 {
	hi, next := bits.Mul64(interactions/p.Every+1, p.Every)
	if hi != 0 || next <= interactions {
		return math.MaxUint64
	}
	return next
}

// OnStep implements sim.Hook. It reports only on productive steps.
func (p *Progress) OnStep(pop *population.Population, s sim.StepInfo) {
	if !s.Changed || pop.Interactions() < p.next {
		return
	}
	p.report(pop.Interactions(), pop.Productive(), pop.Spread())
}

// IgnoresNull marks OnStep as a no-op on null steps (see sim.Hook), so
// a run that reports progress keeps sim.Run's fused loop.
func (p *Progress) IgnoresNull() {}

// MaybeReport is the hook-less entry point for engines that advance the
// interaction count in jumps (internal/countsim): it reports once when
// interactions has reached the next multiple of Every, however far
// past it. spread is a thunk so callers only pay for group-size
// computation on report lines.
func (p *Progress) MaybeReport(interactions, productive uint64, spread func() int) {
	if p.next == 0 {
		p.reset(0)
	}
	if interactions < p.next {
		return
	}
	p.report(interactions, productive, spread())
}

func (p *Progress) report(interactions, productive uint64, spread int) {
	now := time.Now()
	w := p.W
	if w == nil {
		w = os.Stderr
	}
	rate := 0.0
	if dt := now.Sub(p.lastT).Seconds(); dt > 0 {
		rate = float64(interactions-p.lastI) / dt
	}
	prodPct := 0.0
	if interactions > 0 {
		prodPct = 100 * float64(productive) / float64(interactions)
	}
	line := fmt.Sprintf("%d interactions, %s/s, productive %.1f%%, spread %d",
		interactions, siCount(rate), prodPct, spread)
	if p.Label != "" {
		line = p.Label + ": " + line
	}
	if p.Cap > 0 {
		pct := 100 * float64(interactions) / float64(p.Cap)
		line += fmt.Sprintf(", %.1f%% of cap", pct)
		if rate > 0 && interactions < p.Cap {
			eta := time.Duration(float64(p.Cap-interactions) / rate * float64(time.Second))
			line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
	}
	fmt.Fprintln(w, "progress:", line)
	p.lastT = now
	p.lastI = interactions
	p.next = p.nextAfter(interactions)
}

// siCount renders a rate with an SI suffix (k/M/G) at 3 significant-ish
// digits, e.g. "3.2M".
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
