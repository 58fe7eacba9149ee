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

// BenchmarkColdPredict answers coldGrid with a fresh MeanField per
// question, so every answer integrates the fluid, builds its endgame
// chain and solves it: one op is the whole grid, and ms/answer the mean
// cold answer.
func BenchmarkColdPredict(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range coldGrid {
			pr, err := NewMeanField().Predict(s)
			if err != nil {
				b.Fatal(err)
			}
			coldSink += pr.ExpectedInteractions
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(coldGrid)), "ms/answer")
}
