package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/harness"
)

// FuzzTrialRequest holds admission to its promise that an accepted
// POST /v1/trials body names a runnable trial: every small spec that
// TrialRequest.Spec accepts must run, capped, without a panic or an
// error. The corpus covers each request shape the API documents plus
// the batch size that once wrapped past the 2·size <= n check; plain
// `go test` replays it, and `go test -fuzz=FuzzTrialRequest
// ./internal/serve` explores further.
func FuzzTrialRequest(f *testing.F) {
	for _, body := range []string{
		`{"n":24,"k":4,"seed":7}`,
		`{"n":24,"k":4,"engine":"count","grouping":true}`,
		`{"n":24,"k":4,"engine":"batch","batch_size":6,"max_interactions":5000}`,
		`{"n":12,"k":3,"seed":3,"max_interactions":2000,"topology":"ring","fairness":"weak"}`,
		`{"n":12,"k":3,"max_interactions":2000,"churn":"at=100,events=2,every=50,join=1,leave=2,crash"}`,
		`{"n":12,"k":3,"max_interactions":2000,"topology":"grid:3x4"}`,
		`{"n":12,"k":3,"max_interactions":2000,"topology":"regular:3@5"}`,
		`{"n":24,"k":4,"engine":"batch","batch_size":9223372036854775808}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req TrialRequest
		if json.Unmarshal([]byte(body), &req) != nil {
			return
		}
		// Validating a spec builds and caches its 3k−2 state table, and
		// walks its churn schedule event by event; keep both small so
		// the fuzzer's memory and time stay bounded.
		if req.K > 64 {
			return
		}
		if c, err := harness.ParseChurn(req.Churn); err == nil && (c.Events > 64 || c.Joins > 64) {
			return
		}
		spec, err := req.Spec()
		if err != nil || spec.N > 64 {
			return
		}
		if spec.MaxInteractions == 0 || spec.MaxInteractions > 20_000 {
			spec.MaxInteractions = 20_000
		}
		if _, err := harness.RunTrial(spec); err != nil {
			t.Fatalf("admitted %s, but the trial failed: %v", body, err)
		}
	})
}
