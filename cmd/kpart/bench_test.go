package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sched"
)

// BenchmarkSuite runs kpart bench's suite under `go test -bench`:
// iteration i of a point is that point's trial i, so at -benchtime 5x
// interactions/run is the point's mean_interactions in BENCH_kpart.json.
// ns/op additionally shows the simulator's own cost.
func BenchmarkSuite(b *testing.B) {
	for _, e := range benchSuite {
		b.Run(e.name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				res, _, err := e.trial(context.Background(), i)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Interactions
			}
			b.ReportMetric(float64(total)/float64(b.N), "interactions/run")
		})
	}
}

// BenchmarkEngineThroughput measures the agent engine's cost per
// interaction: ns/op is ns per interaction of engineLoop. "fused" is the
// run harness trials make and kpart bench's engine-throughput point;
// "general" wraps the same scheduler in a sched.Func, which keeps sim.Run
// on its general loop.
func BenchmarkEngineThroughput(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		if err := engineLoop(sched.NewRandom(1), uint64(b.N), b.ResetTimer); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("general", func(b *testing.B) {
		r := sched.NewRandom(1)
		if err := engineLoop(sched.Func{SchedName: r.Name(), F: r.Next}, uint64(b.N), b.ResetTimer); err != nil {
			b.Fatal(err)
		}
	})
}

// Every suite point reproduces its committed BENCH_kpart.json point: the
// same name, n, k and engine, and, over the committed trial count, the
// same mean_interactions and scenario split. A change that moves a
// trajectory fails here rather than as an info line in bench-diff.
// -short skips the n = 10⁸ point.
func TestBenchSuiteMatchesCommittedDocument(t *testing.T) {
	doc, err := readBenchDoc("../../BENCH_kpart.json")
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]benchPoint{}
	for _, p := range doc.Points {
		committed[p.Name] = p
	}
	for _, e := range benchSuite {
		t.Run(e.name, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(e.name, "scale-") {
				t.Skip("n = 10⁸ takes seconds")
			}
			want, ok := committed[e.name]
			if !ok {
				t.Fatal("no committed point")
			}
			got, err := runPoint(context.Background(), e, want.Trials)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N || got.K != want.K || got.Engine != want.Engine {
				t.Errorf("suite runs n=%d k=%d on %s, committed point has n=%d k=%d on %s",
					got.N, got.K, got.Engine, want.N, want.K, want.Engine)
			}
			if got.MeanInteractions != want.MeanInteractions || got.Converged != want.Converged || got.Frozen != want.Frozen {
				t.Errorf("mean_interactions %v, converged %d, frozen %d; committed %v, %d, %d",
					got.MeanInteractions, got.Converged, got.Frozen, want.MeanInteractions, want.Converged, want.Frozen)
			}
		})
	}
}
