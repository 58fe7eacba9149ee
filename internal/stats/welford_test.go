package stats

import (
	"math"
	"testing"
)

// The Welford accumulator must agree with the two-pass Summarize and with
// hand-computed closed forms — the twin calibration leans on it for every
// grid point.

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestWelfordClosedForm(t *testing.T) {
	// 1..n has mean (n+1)/2 and sample variance n(n+1)/12.
	const n = 101
	var w Welford
	for i := 1; i <= n; i++ {
		w.Add(float64(i))
	}
	if w.N() != n {
		t.Fatalf("N = %d, want %d", w.N(), n)
	}
	wantMean := float64(n+1) / 2
	wantVar := float64(n) * float64(n+1) / 12
	if !almostEq(w.Mean(), wantMean, 1e-12) {
		t.Errorf("Mean = %g, want %g", w.Mean(), wantMean)
	}
	if !almostEq(w.Variance(), wantVar, 1e-12) {
		t.Errorf("Variance = %g, want %g", w.Variance(), wantVar)
	}
	if !almostEq(w.Std(), math.Sqrt(wantVar), 1e-12) {
		t.Errorf("Std = %g, want %g", w.Std(), math.Sqrt(wantVar))
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	xs := []float64{3.5, -2, 17, 0.25, 9, 9, -41.5, 6.75, 100, 2.125}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if !almostEq(w.Mean(), s.Mean, 1e-12) {
		t.Errorf("Mean = %g, Summarize = %g", w.Mean(), s.Mean)
	}
	if !almostEq(w.Std(), s.Std, 1e-12) {
		t.Errorf("Std = %g, Summarize = %g", w.Std(), s.Std)
	}
	// The one-pass CI95 must match the slice-based half-width helper.
	half := CI95(xs)
	iv := w.CI95()
	if !almostEq(iv.Half, half, 1e-12) || !almostEq(iv.Center, s.Mean, 1e-12) {
		t.Errorf("CI95 = %+v, slice helper half = %g mean = %g", iv, half, s.Mean)
	}
}

func TestWelfordSmallSamples(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 {
		t.Errorf("empty accumulator not all-zero: %+v", w)
	}
	w.Add(42)
	if w.Mean() != 42 {
		t.Errorf("Mean after one Add = %g, want 42", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("Variance with one sample = %g, want 0", w.Variance())
	}
	if iv := w.CI95(); iv.Half != 0 || iv.Center != 42 {
		t.Errorf("CI95 with one sample = %+v, want degenerate at 42", iv)
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset, small spread: the naive sum-of-squares form loses all
	// significant digits here; Welford must not.
	const offset = 1e9
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(offset + float64(i%2)) // alternating offset, offset+1
	}
	if !almostEq(w.Mean(), offset+0.5, 1e-12) {
		t.Errorf("Mean = %g, want %g", w.Mean(), offset+0.5)
	}
	// Bernoulli(1/2) sample variance ≈ 0.25 (n/(n−1) correction ≈ 1).
	if v := w.Variance(); math.Abs(v-0.25) > 1e-3 {
		t.Errorf("Variance = %g, want ≈0.25", v)
	}
}

func TestWelfordAddUint64(t *testing.T) {
	var a, b Welford
	a.AddUint64(7)
	a.AddUint64(9)
	b.Add(7)
	b.Add(9)
	if a != b {
		t.Errorf("AddUint64 path diverged: %+v vs %+v", a, b)
	}
}

func TestNormalInterval(t *testing.T) {
	iv := NormalInterval(10, 2, 100, Z95)
	if !almostEq(iv.Half, 1.96*2/10, 1e-12) {
		t.Errorf("Half = %g, want %g", iv.Half, 1.96*2/10)
	}
	if iv := NormalInterval(5, 2, 1, Z95); iv.Half != 0 || iv.Center != 5 {
		t.Errorf("n=1 interval = %+v, want degenerate", iv)
	}
	if iv := NormalInterval(5, 0, 100, Z95); iv.Half != 0 {
		t.Errorf("std=0 interval = %+v, want degenerate", iv)
	}
}

func TestPredictionInterval(t *testing.T) {
	iv := PredictionInterval(100, 7, 2)
	if iv.Low() != 86 || iv.High() != 114 {
		t.Errorf("interval = [%g, %g], want [86, 114]", iv.Low(), iv.High())
	}
	if iv := PredictionInterval(100, 0, 2); iv.Half != 0 {
		t.Errorf("std=0 interval = %+v, want degenerate", iv)
	}
}
