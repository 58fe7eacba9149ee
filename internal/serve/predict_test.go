package serve

// Loopback tests for POST /v1/predict: happy path, validation mapped to
// 400 before any model runs, byte-identical responses for a repeated
// key, and the span header round-trip.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs/span"
	"repro/internal/twin"
)

// postPredict posts a prediction request and returns the response with
// its fully-read body.
func postPredict(t *testing.T, ts *httptest.Server, body, traceID string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(span.Header, traceID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestPredictHappyPath(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postPredict(t, ts, `{"n":12,"k":3,"milestones":true}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("%s = %q, want miss", cacheHeader, got)
	}
	var rec PredictRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	want := PredictKey(twin.Spec{N: 12, K: 3, Milestones: true})
	if rec.SpecKey != want {
		t.Errorf("spec_key %q, want %q", rec.SpecKey, want)
	}
	pr := rec.Prediction
	if pr.Model != "lumped" || pr.Fidelity != twin.FidelityExact {
		t.Errorf("small population answered by %s/%s, want the exact rung", pr.Model, pr.Fidelity)
	}
	if !(pr.ExpectedInteractions > 0) || len(pr.Milestones) != 12/3 {
		t.Errorf("implausible prediction: %+v", pr)
	}
	if pr.IntervalLow < 0 || pr.IntervalHigh < pr.ExpectedInteractions {
		t.Errorf("interval [%g, %g] does not bracket the mean %g",
			pr.IntervalLow, pr.IntervalHigh, pr.ExpectedInteractions)
	}
}

func TestPredictInvalidSpecIs400(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"n":0,"k":3}`,                 // no population
		`{"n":10,"k":1}`,                // k < 2
		`{"n":-5,"k":2}`,                // negative population
		`{"n":10,"k":3,"bogus":true}`,   // unknown field (strict decode)
		`{not json`,                     // malformed
		`{"n":24,"k":4}{"n":999,"k":4}`, // a second object after the first
	} {
		resp, b := postPredict(t, ts, body, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
}

// A repeated key must replay byte-identically — first from the LRU, and
// (because the twin is deterministic) identically even if it were
// recomputed.
func TestPredictRepeatByteIdentical(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"n":24,"k":4}`
	first, b1 := postPredict(t, ts, body, "")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.StatusCode, b1)
	}
	if got := first.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("first %s = %q, want miss", cacheHeader, got)
	}
	second, b2 := postPredict(t, ts, body, "")
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d", second.StatusCode)
	}
	if got := second.Header.Get(cacheHeader); got != "lru" {
		t.Fatalf("second %s = %q, want lru", cacheHeader, got)
	}
	if string(b1) != string(b2) {
		t.Fatalf("responses differ:\n%s\n%s", b1, b2)
	}
}

// The prediction endpoint participates in the same tracing contract as
// trials: a client trace ID is echoed and names the trace in the export,
// and the root span records the endpoint and cache provenance.
func TestPredictSpanRoundTrip(t *testing.T) {
	col := span.NewCollector(nil)
	srv := New(Config{Workers: 1, QueueDepth: 2, Spans: col})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const traceID = "predict-trace.01"
	resp, body := postPredict(t, ts, `{"n":12,"k":3}`, traceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(span.Header); got != traceID {
		t.Fatalf("response %s = %q, want %q", span.Header, got, traceID)
	}
	out := exportWhenDone(t, col, 1)
	var root *span.Span
	for i := range out {
		if out[i].Trace == traceID && out[i].Name == "request" {
			root = &out[i]
		}
	}
	if root == nil {
		t.Fatalf("no request span under trace %q in export %+v", traceID, out)
	}
	attrs := make(map[string]string, len(root.Attrs))
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["endpoint"] != "predict" || attrs["cache"] != "miss" {
		t.Errorf("root attrs %+v, want endpoint=predict cache=miss", attrs)
	}
	if attrs["model"] == "" {
		t.Errorf("root span missing model attr: %+v", attrs)
	}
}
