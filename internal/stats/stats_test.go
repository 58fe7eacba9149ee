package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("got %v", err)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("mean %v", s.Mean)
	}
	// Sample std with n−1: variance = 32/7.
	if !approx(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("std %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %v %v", s.Min, s.Max)
	}
	if !approx(s.Median, 4.5, 1e-12) {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Mean != 3.5 || s.Median != 3.5 {
		t.Fatalf("%+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !approx(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(1)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = r.Float64()
	}
	for i := range large {
		large[i] = r.Float64()
	}
	if CI95(small) <= CI95(large) {
		t.Fatalf("CI did not shrink: %v vs %v", CI95(small), CI95(large))
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI of single sample nonzero")
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 1, 1e-12) || !approx(fit.R2, 1, 1e-12) {
		t.Fatalf("%+v", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	fit, err := FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 0, 1e-12) || !approx(fit.R2, 1, 1e-12) {
		t.Fatalf("%+v", fit)
	}
}

// Property: FitLinear recovers the generating line from noiseless data.
func TestFitLinearRecovery(t *testing.T) {
	f := func(a, b float64) bool {
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		x := []float64{0, 1, 2, 3, 4, 5}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = a + b*x[i]
		}
		fit, err := FitLinear(x, y)
		if err != nil {
			return false
		}
		return approx(fit.Slope, b, 1e-6*(1+math.Abs(b))) &&
			approx(fit.Intercept, a, 1e-6*(1+math.Abs(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitGrowthClassifiesExponential(t *testing.T) {
	x := []float64{2, 3, 4, 5, 6, 8}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 100 * math.Exp(0.9*x[i])
	}
	g, err := FitGrowth(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if g.BestModel() != "exponential" {
		t.Fatalf("classified %q: %+v", g.BestModel(), g)
	}
	if !approx(g.Exponential.Slope, 0.9, 1e-9) {
		t.Fatalf("rate %v", g.Exponential.Slope)
	}
}

func TestFitGrowthClassifiesPower(t *testing.T) {
	x := []float64{120, 240, 360, 480, 600, 720}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 * math.Pow(x[i], 1.7)
	}
	g, err := FitGrowth(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if g.BestModel() != "power" {
		t.Fatalf("classified %q", g.BestModel())
	}
	if !approx(g.Power.Slope, 1.7, 1e-9) {
		t.Fatalf("exponent %v", g.Power.Slope)
	}
}

func TestFitGrowthClassifiesLinear(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{10.1, 19.8, 30.2, 39.9, 50.1, 60.0}
	g, err := FitGrowth(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Linear data is also a perfect-ish power law with exponent ~1, so
	// accept either classification but require the linear r² to be ~1.
	if g.Linear.R2 < 0.999 {
		t.Fatalf("linear r² = %v", g.Linear.R2)
	}
}

func TestFitGrowthRejectsNonPositive(t *testing.T) {
	if _, err := FitGrowth([]float64{1, 2}, []float64{0, 3}); err == nil {
		t.Fatal("zero y accepted")
	}
	if _, err := FitGrowth([]float64{-1, 2}, []float64{1, 3}); err == nil {
		t.Fatal("negative x accepted")
	}
}
