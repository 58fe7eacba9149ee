package serve

// Loopback integration tests for the load-bearing service properties:
// content-addressed replay is byte-identical, backpressure is an
// explicit 429, shutdown drains gracefully, and a restarted server
// answers for trials journaled before the restart.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/rng"
)

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func getURL(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestTrialCacheHit is the core acceptance test: the same spec twice
// returns a miss then an LRU hit (visible both in the response header
// and the obs counter) with byte-identical bodies.
func TestTrialCacheHit(t *testing.T) {
	reg := obs.New("test")
	srv := New(Config{Workers: 2, QueueDepth: 8, Registry: reg})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"n":24,"k":4,"seed":7}`
	resp1, body1 := postJSON(t, ts.Client(), ts.URL+"/v1/trials", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first trial: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("first trial: %s = %q, want miss", cacheHeader, got)
	}
	hitsBefore := counterValue(t, reg, "serve/cache_hits")

	resp2, body2 := postJSON(t, ts.Client(), ts.URL+"/v1/trials", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second trial: status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get(cacheHeader); got != "lru" {
		t.Fatalf("second trial: %s = %q, want lru", cacheHeader, got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache replay is not byte-identical:\n%s\n%s", body1, body2)
	}
	if hits := counterValue(t, reg, "serve/cache_hits"); hits != hitsBefore+1 {
		t.Fatalf("serve/cache_hits = %d after hit, want %d", hits, hitsBefore+1)
	}

	// The same record is addressable by its content hash.
	var rec Record
	if err := json.Unmarshal(body1, &rec); err != nil {
		t.Fatalf("decoding record: %v", err)
	}
	if rec.SpecKey == "" {
		t.Fatal("record has no spec_key")
	}
	resp3, body3 := getURL(t, ts.Client(), ts.URL+"/v1/results/"+rec.SpecKey)
	if resp3.StatusCode != http.StatusOK || !bytes.Equal(body1, body3) {
		t.Fatalf("GET /v1/results/%s: status %d, identical=%t", rec.SpecKey, resp3.StatusCode, bytes.Equal(body1, body3))
	}
}

func TestInvalidSpecRejectedBeforeAdmission(t *testing.T) {
	reg := obs.New("test")
	srv := New(Config{Workers: 1, QueueDepth: 4, Registry: reg})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"n":24,"k":1,"seed":7}`,          // k out of range
		`{"n":1,"k":4,"seed":7}`,           // n too small for k partitions
		`{"n":24,"k":4,"engine":"banana"}`, // unknown engine
		`{"n":24,"k":4,"typo_field":1}`,    // unknown field (strict decode)
		`{"n":`,                            // malformed JSON
	} {
		resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400 (%s)", body, resp.StatusCode, b)
		}
	}
	if got := counterValue(t, reg, "serve/admitted"); got != 0 {
		t.Fatalf("invalid specs were admitted: serve/admitted = %d, want 0", got)
	}
}

func TestResultNotFound(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := getURL(t, ts.Client(), ts.URL+"/v1/results/deadbeefdeadbeefdeadbeefdeadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d, want 404", resp.StatusCode)
	}
}

// TestQueueFullAnswers429 pins the backpressure contract: with the one
// worker blocked and the one queue slot taken, the next trial is
// rejected with 429 and a Retry-After hint — it is never silently
// buffered.
func TestQueueFullAnswers429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	old := runTrialFn
	runTrialFn = func(ctx context.Context, spec harness.TrialSpec, _ harness.RunOptions) (harness.TrialResult, error) {
		started <- struct{}{}
		select {
		case <-release:
			return harness.TrialResult{Spec: spec, Converged: true}, nil
		case <-ctx.Done():
			return harness.TrialResult{}, ctx.Err()
		}
	}
	defer func() { runTrialFn = old }()

	reg := obs.New("test")
	srv := New(Config{Workers: 1, QueueDepth: 1, Registry: reg, RetryAfter: 3 * time.Second})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the worker, then the single queue slot.
	type trialReply struct {
		status int
		hdr    string
		body   []byte
	}
	replies := make(chan trialReply, 2)
	for i, body := range []string{`{"n":24,"k":4,"seed":1}`, `{"n":24,"k":4,"seed":2}`} {
		go func(body string) {
			resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", body)
			replies <- trialReply{resp.StatusCode, resp.Header.Get(cacheHeader), b}
		}(body)
		if i == 0 {
			<-started // the worker is now blocked inside trial #1
		} else {
			waitFor(t, func() bool { return srv.Pool().Depth() == 1 })
		}
	}

	resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", `{"n":24,"k":4,"seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429 (%s)", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if got := counterValue(t, reg, "serve/rejected"); got != 1 {
		t.Fatalf("serve/rejected = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK || r.hdr != "miss" {
			t.Fatalf("admitted trial %d: status %d, %s=%q (%s)", i, r.status, cacheHeader, r.hdr, r.body)
		}
	}
}

// TestTrialPanicFailsOnlyItsJob: a trial that panics fails its own
// request with 500 and ErrTrialPanic, counted in serve/trial_panics,
// and caches nothing; the server goes on serving, and a sweep that
// holds the spec reports the panic in-band.
func TestTrialPanicFailsOnlyItsJob(t *testing.T) {
	old := runTrialFn
	runTrialFn = func(ctx context.Context, spec harness.TrialSpec, opts harness.RunOptions) (harness.TrialResult, error) {
		if spec.N == 13 {
			panic("engine exploded")
		}
		return old(ctx, spec, opts)
	}
	defer func() { runTrialFn = old }()

	reg := obs.New("test")
	srv := New(Config{Workers: 1, Registry: reg})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", `{"n":13,"k":3,"seed":1}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), ErrTrialPanic.Error()+": engine exploded") {
		t.Fatalf("panicking trial: status %d, body %s; want 500 naming the panic", resp.StatusCode, b)
	}
	if got := counterValue(t, reg, "serve/trial_panics"); got != 1 {
		t.Fatalf("serve/trial_panics = %d, want 1", got)
	}
	if resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", `{"n":12,"k":3,"seed":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("trial after the panic: status %d (%s)", resp.StatusCode, b)
	}
	if resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", `{"n":13,"k":3,"seed":1}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking trial again: status %d (%s); nothing may be cached", resp.StatusCode, b)
	}

	resp, b = postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", `{"n":13,"k":3,"seed":1,"trials":2}`)
	lines := nonEmptyLines(b)
	if resp.StatusCode != http.StatusOK || len(lines) != 1 ||
		!strings.Contains(lines[0], "sweep aborted at trial 0: "+ErrTrialPanic.Error()) {
		t.Fatalf("sweep over a panicking spec: status %d, lines %q; want one in-band error line", resp.StatusCode, lines)
	}
}

// TestShutdownDrainsAndJournalSurvivesRestart is the restart acceptance
// test: a sweep is interrupted mid-flight by Shutdown, completed trials
// are already journaled, and a server restarted on that journal answers
// GET /v1/results/{speckey} from disk with the byte-identical record.
func TestShutdownDrainsAndJournalSurvivesRestart(t *testing.T) {
	firstDone := make(chan struct{}, 1)
	old := runTrialFn
	// Trial seed 5 (the sweep's first trial) completes immediately; every
	// other trial blocks until drain cancels the pool context.
	runTrialFn = func(ctx context.Context, spec harness.TrialSpec, _ harness.RunOptions) (harness.TrialResult, error) {
		if spec.Seed == rng.StreamSeed(5, 0, 0) {
			firstDone <- struct{}{}
			return harness.TrialResult{Spec: spec, Interactions: 42, Converged: true}, nil
		}
		<-ctx.Done()
		return harness.TrialResult{}, ctx.Err()
	}
	defer func() { runTrialFn = old }()

	dir := t.TempDir()
	jpath := filepath.Join(dir, "serve.journal")
	journal, err := harness.CreateJournal(jpath, "serve-test")
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 2, QueueDepth: 8, Journal: journal})
	ts := httptest.NewServer(srv.Handler())

	sweepDone := make(chan []byte, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
			strings.NewReader(`{"n":12,"k":3,"trials":3,"seed":5}`))
		if err != nil {
			sweepDone <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		sweepDone <- b
	}()

	<-firstDone // trial 0 finished; trials 1..2 are blocked in-flight
	waitFor(t, func() bool { return journal.Len() == 1 })
	srv.Shutdown() // cancels the pool context: blocked trials abort

	stream := <-sweepDone
	if stream == nil {
		t.Fatal("sweep request failed outright; want a truncated NDJSON stream")
	}
	// The stream holds the one completed record and an in-band abort line.
	lines := nonEmptyLines(stream)
	if len(lines) != 2 || !strings.Contains(lines[1], "sweep aborted") {
		t.Fatalf("interrupted sweep stream = %q, want 1 record + abort line", lines)
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("decoding streamed record: %v", err)
	}

	ts.Close()
	if err := journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}

	// Restart: a fresh server on the reopened journal, with a cold cache,
	// must answer for the completed trial from disk.
	journal2, err := harness.OpenJournal(jpath, "serve-test")
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	defer journal2.Close()
	reg2 := obs.New("test")
	srv2 := New(Config{Workers: 1, Journal: journal2, Registry: reg2})
	defer srv2.Shutdown()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, body := getURL(t, ts2.Client(), ts2.URL+"/v1/results/"+rec.SpecKey)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restart: status %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cacheHeader); got != "journal" {
		t.Fatalf("after restart: %s = %q, want journal", cacheHeader, got)
	}
	if want := lines[0] + "\n"; string(body) != want {
		t.Fatalf("restart replay differs:\n%s\n%s", body, want)
	}
	if got := counterValue(t, reg2, "serve/journal_hits"); got != 1 {
		t.Fatalf("serve/journal_hits = %d, want 1", got)
	}
}

// TestSweepStreamsAndAggregates runs a real (non-stubbed) sweep and
// checks the NDJSON contract: one record per trial in order, then a
// trailer with the aggregated point; a second identical sweep is served
// entirely from the content-addressed store.
func TestSweepStreamsAndAggregates(t *testing.T) {
	reg := obs.New("test")
	srv := New(Config{Workers: 2, QueueDepth: 8, Registry: reg})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"n":12,"k":3,"trials":4,"seed":9}`
	resp, stream := postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, stream)
	}
	lines := nonEmptyLines(stream)
	if len(lines) != 5 {
		t.Fatalf("sweep stream has %d lines, want 4 records + trailer:\n%s", len(lines), stream)
	}
	for i, line := range lines[:4] {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := rng.StreamSeed(9, 0, uint64(i)); rec.Result.Spec.Seed != want {
			t.Fatalf("record %d out of order: seed %d, want %d", i, rec.Result.Spec.Seed, want)
		}
	}
	var trailer struct {
		Point harness.Point `json:"point"`
	}
	if err := json.Unmarshal([]byte(lines[4]), &trailer); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if trailer.Point.Trials != 4 {
		t.Fatalf("trailer aggregates %d trials, want 4", trailer.Point.Trials)
	}

	ran := counterValue(t, reg, "serve/trials_run")
	resp2, stream2 := postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", body)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(stream, stream2) {
		t.Fatalf("replayed sweep differs (status %d)", resp2.StatusCode)
	}
	if got := counterValue(t, reg, "serve/trials_run"); got != ran {
		t.Fatalf("replayed sweep recomputed trials: serve/trials_run went %d -> %d", ran, got)
	}
}

func TestSweepTooLargeRejected(t *testing.T) {
	srv := New(Config{Workers: 1, MaxSweepTrials: 10})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/sweeps", `{"n":12,"k":3,"trials":11,"seed":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d, want 400 (%s)", resp.StatusCode, b)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Config{Workers: 3, QueueDepth: 5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := getURL(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var doc healthDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if doc.Status != "ok" || doc.Workers != 3 || doc.QueueCap != 5 {
		t.Fatalf("healthz = %+v, want ok/3 workers/cap 5", doc)
	}

	srv.Shutdown()
	_, body = getURL(t, ts.Client(), ts.URL+"/healthz")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz body after shutdown: %v", err)
	}
	if doc.Status != "draining" {
		t.Fatalf("healthz after shutdown: status %q, want draining", doc.Status)
	}
}

// TestTrialAfterShutdown pins the drain semantics at the HTTP level:
// admission after Shutdown is 503, not a hang or a 429.
func TestTrialAfterShutdown(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Shutdown()
	resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/trials", `{"n":24,"k":4,"seed":7}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("trial after shutdown: status %d, want 503 (%s)", resp.StatusCode, b)
	}
}

func TestPoolSubmitBlockedExitsOnClose(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	old := runTrialFn
	runTrialFn = func(ctx context.Context, spec harness.TrialSpec, _ harness.RunOptions) (harness.TrialResult, error) {
		select {
		case <-release:
			return harness.TrialResult{Spec: spec}, nil
		case <-ctx.Done():
			return harness.TrialResult{}, ctx.Err()
		}
	}
	defer func() { runTrialFn = old }()

	p := NewPool(1, 1, harness.RunOptions{}, nil, nil, nil)
	spec := harness.TrialSpec{N: 12, K: 3, Seed: 1}
	if _, err := p.TrySubmit(spec, nil); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	spec2 := spec
	spec2.Seed = 2
	waitFor(t, func() bool { return p.Inflight() == 1 })
	if _, err := p.TrySubmit(spec2, nil); err != nil {
		t.Fatalf("second submit (queue slot): %v", err)
	}
	spec3 := spec
	spec3.Seed = 3
	if _, err := p.TrySubmit(spec3, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}

	// A blocking Submit parked on the full queue must exit with
	// ErrDraining when Close cancels the pool, never panic on a closed
	// channel.
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(context.Background(), spec3, nil)
		errc <- err
	}()
	waitFor(t, func() bool { return p.Depth() == 1 }) // still parked
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	err := <-errc
	<-closed // workers fully drained before the test restores runTrialFn
	if !errors.Is(err, ErrDraining) && !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Submit during Close: %v, want ErrDraining", err)
	}
}

// waitFor polls cond for up to 5s; the tests use it only for
// scheduler-timing gaps (a goroutine reaching a blocking point), never
// for result values.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func nonEmptyLines(b []byte) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	return lines
}
