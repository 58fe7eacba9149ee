package twin

import "testing"

// coldGrid is shaped like serve-mix's prediction questions (n in
// [200, 5000), k in {4, 5, 6, 8}, each asked once).
var coldGrid = []Spec{
	{N: 200, K: 4}, {N: 200, K: 5}, {N: 200, K: 6}, {N: 200, K: 8},
	{N: 1000, K: 4}, {N: 1000, K: 5}, {N: 1000, K: 6}, {N: 1000, K: 8},
	{N: 2500, K: 4}, {N: 2500, K: 5}, {N: 2500, K: 6}, {N: 2500, K: 8},
	{N: 4999, K: 4}, {N: 4999, K: 5}, {N: 4999, K: 6}, {N: 4999, K: 8},
}

var coldSink float64

// BenchmarkColdPredict answers coldGrid with a fresh MeanField and an
// empty shape cache per question, so every answer integrates the fluid,
// builds its endgame chain's shape, fills and solves it: one op is the
// whole grid, and ms/answer the mean cold answer.
func BenchmarkColdPredict(b *testing.B) {
	defer shapes.reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range coldGrid {
			shapes.reset()
			predictGridAnswer(b, s)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(coldGrid)), "ms/answer")
}

// BenchmarkWarmPredict is BenchmarkColdPredict with every shape of the
// grid in the cache, as it is for most of serve-mix's questions: each
// answer integrates the fluid and fills and solves its chain on a
// cached shape.
func BenchmarkWarmPredict(b *testing.B) {
	defer shapes.reset()
	shapes.reset()
	for _, s := range coldGrid {
		predictGridAnswer(b, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range coldGrid {
			predictGridAnswer(b, s)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(coldGrid)), "ms/answer")
}

func predictGridAnswer(b *testing.B, s Spec) {
	pr, err := NewMeanField().Predict(s)
	if err != nil {
		b.Fatal(err)
	}
	coldSink += pr.ExpectedInteractions
}
