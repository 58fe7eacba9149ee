package stats

// Welford's online mean/variance accumulator plus the normal-approximation
// interval built on it. The twin calibration (internal/twin) folds thousands
// of simulated trial durations per grid point into one pass; the two-pass
// Summarize would need the whole sample in memory, and the naive
// sum-of-squares form loses precision exactly where the twin needs it (the
// stabilization times are large numbers with comparatively small spread).

import "math"

// Welford accumulates a sample's count, mean, and variance in one pass
// using Welford's update (numerically stable: the M2 term sums squared
// deviations from the RUNNING mean, never the raw squares). The zero value
// is an empty accumulator, ready to use. Not safe for concurrent use.
type Welford struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddUint64 folds an engine interaction counter into the accumulator.
func (w *Welford) AddUint64(x uint64) { w.Add(float64(x)) }

// N returns the number of observations folded in so far.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (n−1 denominator), or 0 with fewer
// than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation (n−1 denominator).
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Interval is a symmetric confidence interval for a mean.
type Interval struct {
	Center float64
	// Half is the half-width; the interval is [Center−Half, Center+Half].
	Half float64
}

// Low returns the interval's lower endpoint.
func (iv Interval) Low() float64 { return iv.Center - iv.Half }

// High returns the interval's upper endpoint.
func (iv Interval) High() float64 { return iv.Center + iv.Half }

// Z95 is the two-sided 95% standard-normal critical value used by the
// normal-approximation intervals here and in CI95.
const Z95 = 1.96

// NormalInterval returns the z-level normal-approximation confidence
// interval for the mean of a sample with the given standard deviation and
// size: mean ± z·std/√n. With n < 2 (or non-positive z) the half-width is
// 0 — no dispersion information, no interval.
func NormalInterval(mean, std float64, n int, z float64) Interval {
	if n < 2 || z <= 0 || std <= 0 {
		return Interval{Center: mean}
	}
	return Interval{Center: mean, Half: z * std / math.Sqrt(float64(n))}
}

// CI95 returns the 95% normal-approximation interval of the accumulated
// mean — the one-pass equivalent of the package-level CI95 over a slice.
func (w *Welford) CI95() Interval {
	return NormalInterval(w.mean, w.Std(), w.n, Z95)
}

// PredictionInterval returns the z-level normal-approximation interval for
// a SINGLE future observation (mean ± z·std) rather than for the mean —
// what the twin's error bars on one trial's stabilization time mean.
func PredictionInterval(mean, std float64, z float64) Interval {
	if z <= 0 || std <= 0 {
		return Interval{Center: mean}
	}
	return Interval{Center: mean, Half: z * std}
}
