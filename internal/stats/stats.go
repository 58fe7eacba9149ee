// Package stats provides the descriptive statistics and curve fits the
// experiment harness uses to aggregate simulation trials and test the
// paper's qualitative claims ("the number of interactions increases
// exponentially with k but not exponentially with n", Section 5).
//
// Everything here is plain float64 arithmetic on small samples (the paper
// uses 100 trials per point); numerical sophistication beyond two-pass
// variance is unnecessary.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the standard descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
	Median float64
	Q1, Q3 float64 // quartiles (linear interpolation)
}

// Summarize computes a Summary. It returns ErrEmpty for an empty sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	return s, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ASCENDING-sorted
// sample using linear interpolation between order statistics. It panics on
// an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantileOf returns the q-quantile of an unsorted sample, copying and
// sorting it first; convenience for callers (the scale and bench
// binaries' per-trial wall times) that want min/median/p90/max off a
// small raw sample. It panics on an empty sample, like Quantile.
func QuantileOf(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantile(sorted, q)
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation (1.96·√(s²/n)). For the ~100-trial
// samples of the paper's setup the normal approximation is adequate.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return Z95 * math.Sqrt(ss/float64(len(xs)-1)/float64(len(xs)))
}

// ChiSquare returns Pearson's goodness-of-fit statistic Σ(obs−exp)²/exp
// over the cells, plus the cell count actually used. Cells with zero
// expectation are skipped when their observation is also zero (impossible
// outcomes that indeed never happened); a zero-expectation cell with a
// positive observation is an error — the model assigned probability zero
// to something that occurred, and no statistic can soften that.
//
// The usual degrees of freedom for a fixed-total fit is used−1; callers
// compare against ChiSquareCritical999 at that df.
func ChiSquare(obs, exp []float64) (stat float64, used int, err error) {
	if len(obs) != len(exp) {
		return 0, 0, errors.New("stats: ChiSquare length mismatch")
	}
	for i := range obs {
		if exp[i] <= 0 {
			if obs[i] != 0 {
				return 0, 0, errors.New("stats: observation in a zero-expectation cell")
			}
			continue
		}
		d := obs[i] - exp[i]
		stat += d * d / exp[i]
		used++
	}
	if used == 0 {
		return 0, 0, ErrEmpty
	}
	return stat, used, nil
}

// ChiSquareCritical999 returns the 99.9% quantile of the chi-square
// distribution with df degrees of freedom via the Wilson–Hilferty cube
// approximation (exact to a fraction of a percent for df ≥ 3, slightly
// conservative below). The statistical gates in the batched-engine tests
// run under fixed seeds, so they pass or fail deterministically; the
// 99.9% level documents how surprising the pinned draw sequence would
// have to be before we call the sampler wrong rather than the seed
// unlucky.
func ChiSquareCritical999(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	const z = 3.090232 // Φ⁻¹(0.999)
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// LinearFit fits y = a + b·x by least squares and returns (a, b, r²).
type LinearFit struct {
	Intercept float64
	Slope     float64
	R2        float64
}

// FitLinear fits a straight line. It returns ErrEmpty when fewer than two
// points are supplied or x is constant.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) || len(x) < 2 {
		return LinearFit{}, ErrEmpty
	}
	n := float64(len(x))
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: constant x")
	}
	b := sxy / sxx
	fit := LinearFit{Intercept: my - b*mx, Slope: b}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	_ = n
	return fit, nil
}

// GrowthFit classifies how y grows with x by fitting three models and
// comparing r² in the appropriate transformed space:
//
//	linear:      y = a + b·x
//	power law:   y = A·x^p      (linear fit of log y vs log x)
//	exponential: y = A·e^(c·x)  (linear fit of log y vs x)
//
// It is the mechanized version of the paper's Section 5 reading of
// Figures 5 and 6: interactions grow "more than linearly but less than
// exponentially" with n (power law wins over exponential) and
// "exponentially" with k (exponential wins).
type GrowthFit struct {
	Linear      LinearFit // on (x, y)
	Power       LinearFit // on (log x, log y); Slope is the exponent p
	Exponential LinearFit // on (x, log y); Slope is the rate c
}

// FitGrowth fits the three models. All y (and, for the power law, x) must
// be positive.
func FitGrowth(x, y []float64) (GrowthFit, error) {
	if len(x) != len(y) || len(x) < 2 {
		return GrowthFit{}, ErrEmpty
	}
	logx := make([]float64, len(x))
	logy := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return GrowthFit{}, errors.New("stats: growth fits need positive data")
		}
		logx[i] = math.Log(x[i])
		logy[i] = math.Log(y[i])
	}
	var g GrowthFit
	var err error
	if g.Linear, err = FitLinear(x, y); err != nil {
		return g, err
	}
	if g.Power, err = FitLinear(logx, logy); err != nil {
		return g, err
	}
	if g.Exponential, err = FitLinear(x, logy); err != nil {
		return g, err
	}
	return g, nil
}

// BestModel returns which of the three growth models has the highest r²:
// "linear", "power", or "exponential".
func (g GrowthFit) BestModel() string {
	best, name := g.Linear.R2, "linear"
	if g.Power.R2 > best {
		best, name = g.Power.R2, "power"
	}
	if g.Exponential.R2 > best {
		name = "exponential"
	}
	return name
}
