package serve

// Loopback tests for the tracing edge: X-Kpart-Trace round-trips into
// the span export, the exported tree is complete (request → queue →
// trial → engine → #gk phases), span identity is stable
// across two runs of the same spec, and concurrent identical specs
// coalesce onto one in-flight job.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// tracedServer boots a loopback server with a fresh collector.
func tracedServer(t *testing.T) (*httptest.Server, *span.Collector, func()) {
	t.Helper()
	col := span.NewCollector(nil)
	srv := New(Config{Workers: 2, QueueDepth: 8, Spans: col})
	ts := httptest.NewServer(srv.Handler())
	return ts, col, func() { ts.Close(); srv.Shutdown() }
}

// postTrial posts a trial with an optional X-Kpart-Trace header.
func postTrial(t *testing.T, ts *httptest.Server, body, traceID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/trials", strings.NewReader(body))
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
	resp.Body.Close()
	return resp
}

// exportWhenDone waits for the request's trace to complete (the root
// span ends in a handler defer that may run after the response reaches
// the client) and returns the export.
func exportWhenDone(t *testing.T, col *span.Collector, n int) []span.Span {
	t.Helper()
	var out []span.Span
	waitFor(t, func() bool {
		out = col.Export()
		return len(out) >= n
	})
	return out
}

// TestTraceHeaderRoundTrip is the satellite acceptance: a client
// X-Kpart-Trace value is echoed on the response and names the trace in
// the span export, and the exported tree covers the whole pipeline.
func TestTraceHeaderRoundTrip(t *testing.T) {
	ts, col, stop := tracedServer(t)
	defer stop()

	const traceID = "client-trace.01"
	resp := postTrial(t, ts, `{"n":24,"k":4,"seed":7}`, traceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trial: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(span.Header); got != traceID {
		t.Fatalf("response %s = %q, want %q", span.Header, got, traceID)
	}

	// request + queue + trial + engine + ≥1 phase.
	spans := exportWhenDone(t, col, 5)
	count := make(map[string]int)
	byID := make(map[string]span.Span)
	for _, s := range spans {
		if s.Trace != traceID {
			t.Fatalf("span %s exported under trace %q, want %q", s.Name, s.Trace, traceID)
		}
		count[s.Name]++
		byID[s.ID] = s
	}
	for _, name := range []string{"request", "queue", "trial", "engine/agent"} {
		if count[name] != 1 {
			t.Errorf("export has %d %q spans, want 1 (all: %v)", count[name], name, count)
		}
	}
	if count["phase/grouping"] == 0 {
		t.Errorf("export has no phase/grouping spans: %v", count)
	}
	for _, s := range spans {
		if s.Name == "request" {
			if s.Parent != "" {
				t.Errorf("request span has parent %q, want root", s.Parent)
			}
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %s/%s has missing parent %q", s.ID, s.Name, s.Parent)
		}
	}
}

// TestTraceDerivedID pins the no-header path: the trace ID is the
// spec's content hash, echoed on the response.
func TestTraceDerivedID(t *testing.T) {
	ts, col, stop := tracedServer(t)
	defer stop()

	spec := harness.TrialSpec{N: 12, K: 3, Seed: 1}
	resp := postTrial(t, ts, `{"n":12,"k":3,"seed":1}`, "")
	if got, want := resp.Header.Get(span.Header), harness.SpecKey(spec); got != want {
		t.Fatalf("derived trace ID %q, want SpecKey %q", got, want)
	}
	// An invalid client ID falls back to the derived form, occurrence 2.
	resp2 := postTrial(t, ts, `{"n":12,"k":3,"seed":1}`, "not a valid id!")
	if got, want := resp2.Header.Get(span.Header), harness.SpecKey(spec)+".2"; got != want {
		t.Fatalf("invalid header: trace ID %q, want %q", got, want)
	}
	exportWhenDone(t, col, 7) // both traces complete
}

// TestRepeatedClientTraceIDsDoNotCollide pins the header path through
// the occurrence sequencer: two requests naming the same X-Kpart-Trace
// value must record under distinct trace IDs ("id", "id.2") — one
// merged trace would collide the two root span IDs and corrupt the
// reconstructed tree.
func TestRepeatedClientTraceIDsDoNotCollide(t *testing.T) {
	ts, col, stop := tracedServer(t)
	defer stop()

	r1 := postTrial(t, ts, `{"n":12,"k":3,"seed":1}`, "shared-id")
	r2 := postTrial(t, ts, `{"n":12,"k":3,"seed":2}`, "shared-id")
	if got := r1.Header.Get(span.Header); got != "shared-id" {
		t.Fatalf("first response %s = %q, want shared-id", span.Header, got)
	}
	if got := r2.Header.Get(span.Header); got != "shared-id.2" {
		t.Fatalf("second response %s = %q, want shared-id.2", span.Header, got)
	}
	spans := exportWhenDone(t, col, 12) // two full pipelines
	roots := make(map[string]int)
	for _, s := range spans {
		if s.Name == "request" {
			roots[s.Trace]++
		}
	}
	if roots["shared-id"] != 1 || roots["shared-id.2"] != 1 {
		t.Fatalf("request roots per trace = %v, want exactly one under each ID", roots)
	}
}

// TestTraceIdentityStableAcrossRuns boots two independent servers and
// posts the same spec to each: the exported span identity (everything
// but the wall stamps) must match field for field.
func TestTraceIdentityStableAcrossRuns(t *testing.T) {
	run := func() []span.Span {
		ts, col, stop := tracedServer(t)
		defer stop()
		postTrial(t, ts, `{"n":24,"k":4,"seed":7}`, "")
		spans := exportWhenDone(t, col, 6)
		for i := range spans {
			spans[i].WallStartUS, spans[i].WallDurUS = 0, 0
		}
		return spans
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("exports differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].ID != b[i].ID || a[i].Parent != b[i].Parent ||
			a[i].Name != b[i].Name || a[i].StartSeq != b[i].StartSeq || a[i].EndSeq != b[i].EndSeq {
			t.Errorf("span %d differs across runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestSingleFlightCoalescing holds a trial in execution and submits the
// same spec again: the second submission must join the in-flight job
// (serve/coalesced counter), and both waiters must observe the same
// outcome.
func TestSingleFlightCoalescing(t *testing.T) {
	release := make(chan struct{})
	old := runTrialFn
	runTrialFn = func(ctx context.Context, spec harness.TrialSpec, _ harness.RunOptions) (harness.TrialResult, error) {
		select {
		case <-release:
			return harness.TrialResult{Spec: spec, Converged: true, Interactions: 42}, nil
		case <-ctx.Done():
			return harness.TrialResult{}, ctx.Err()
		}
	}
	defer func() { runTrialFn = old }()

	reg := obs.New("test")
	p := NewPool(1, 4, harness.RunOptions{}, nil, nil, reg)
	defer func() {
		close(release)
		p.Close()
	}()

	spec := harness.TrialSpec{N: 12, K: 3, Seed: 1}
	j1, err := p.TrySubmit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.Inflight() == 1 })

	j2, err := p.TrySubmit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j1 {
		t.Fatal("identical in-flight spec did not coalesce onto the existing job")
	}
	j3, err := p.Submit(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j3 != j1 {
		t.Fatal("blocking Submit did not coalesce onto the existing job")
	}
	if got := counterValue(t, reg, "serve/coalesced"); got != 2 {
		t.Fatalf("serve/coalesced = %d, want 2", got)
	}
	// Only one job ever entered the queue.
	if got := counterValue(t, reg, "serve/admitted"); got != 1 {
		t.Fatalf("serve/admitted = %d, want 1", got)
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, 3)
	for i, j := range []*Job{j1, j2, j3} {
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			_, body, err := j.Wait(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			bodies[i] = body
		}(i, j)
	}
	release <- struct{}{}
	wg.Wait()
	for i := 1; i < 3; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("coalesced waiters saw different bodies:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	// The flight entry is gone: a fresh submission starts a new job.
	waitFor(t, func() bool {
		p.flight.mu.Lock()
		defer p.flight.mu.Unlock()
		return len(p.flight.pending) == 0
	})
}

// TestCoalescedWaiterNotStrandedOnAbandon pins the admission-failure
// broadcast: a request that coalesces onto a job whose admission is
// then abandoned (here, a blocking Submit whose client disconnects
// while it waits for queue space) must observe the admission error
// promptly — before the fix, the abandoned job's done channel never
// closed and the coalesced waiter blocked forever.
func TestCoalescedWaiterNotStrandedOnAbandon(t *testing.T) {
	release := make(chan struct{})
	old := runTrialFn
	runTrialFn = func(ctx context.Context, spec harness.TrialSpec, _ harness.RunOptions) (harness.TrialResult, error) {
		select {
		case <-release:
			return harness.TrialResult{Spec: spec, Converged: true}, nil
		case <-ctx.Done():
			return harness.TrialResult{}, ctx.Err()
		}
	}
	defer func() { runTrialFn = old }()

	p := NewPool(1, 1, harness.RunOptions{}, nil, nil, nil)
	defer func() {
		close(release)
		p.Close()
	}()

	// Occupy the single worker and fill the one-slot queue so the next
	// blocking Submit parks in the queue send.
	if _, err := p.TrySubmit(harness.TrialSpec{N: 12, K: 3, Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.Inflight() == 1 })
	if _, err := p.TrySubmit(harness.TrialSpec{N: 12, K: 3, Seed: 2}, nil); err != nil {
		t.Fatal(err)
	}

	blocked := harness.TrialSpec{N: 12, K: 3, Seed: 3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, blocked, nil)
		errc <- err
	}()

	// Once the Submit owns the flight entry it is parked in the queue
	// send; a TrySubmit for the same spec coalesces onto its job.
	key := harness.SpecKey(blocked)
	waitFor(t, func() bool {
		p.flight.mu.Lock()
		defer p.flight.mu.Unlock()
		return p.flight.pending[key] != nil
	})
	j, err := p.TrySubmit(blocked, nil)
	if err != nil {
		t.Fatal(err)
	}

	cancel() // the submitting client disconnects
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit returned %v, want context.Canceled", err)
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer waitCancel()
	if _, _, werr := j.Wait(waitCtx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("coalesced waiter got %v, want the admission error context.Canceled", werr)
	}
}

// TestMetricsEndpoint checks the server's own GET /metrics renders the
// RED metrics in text exposition format after a request.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.New("kpart_serve")
	srv := New(Config{Workers: 1, Registry: reg})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/trials", `{"n":12,"k":3,"seed":1}`)
	resp, body := getURL(t, ts.Client(), ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE serve_http_trials_requests_total counter",
		`serve_http_trials_requests_total{registry="kpart_serve"} 1`,
		"# TYPE serve_http_trials_latency_us histogram",
		"serve_http_trials_latency_us_count",
		`serve_http_trials_status_2xx_total{registry="kpart_serve"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}
