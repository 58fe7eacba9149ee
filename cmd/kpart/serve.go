package main

// kpart serve exposes the simulation harness as an HTTP service: trial
// and sweep requests come in as JSON, execute on a bounded worker pool
// behind an explicit admission queue (full queue = 429 with Retry-After,
// not an unbounded goroutine pile), and results are memoized in a
// content-addressed cache keyed by harness.SpecKey — an identical spec is
// computed once and replayed byte-for-byte.
//
//	kpart serve [-addr :8080] [-workers 0] [-queue 64] [-cache 4096]
//	            [-journal kpart-serve.journal] [-trial-timeout 0]
//	            [-debug-addr :6060] [-metrics-out path.jsonl] [-trace-out spans.jsonl]
//	kpart serve -smoke
//
// GET /metrics on the API address serves the registry in Prometheus
// text exposition format (and, with -debug-addr, on the debug address
// too). With -trace-out, every request's span tree — request → queue →
// trial → engine → per-#gk grouping phases — is appended to the given
// JSONL file as it completes; clients may name their trace
// with an X-Kpart-Trace header, which the response echoes. Render the
// file with kpart spans.
//
// With -journal, completed trials are appended to the same crash-atomic
// journal format the batch subcommands use; a restarted server loads it
// and answers GET /v1/results/{speckey} for prior work from disk. SIGINT
// drains gracefully: in-flight trials abort through the harness's
// context plumbing, the journal is flushed, and the process exits 130.
//
// -smoke runs a self-contained loopback round-trip (trial, cache hit,
// result replay, health, sweep stream) and exits; `make serve-smoke`
// uses it as the CI-level liveness check.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/serve"
)

func serveCmd(ctx context.Context, args []string) error {
	fs := newFlags()
	var (
		addr         = fs.String("addr", ":8080", "listen address for the API")
		workers      = fs.Int("workers", 0, "trial workers (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth (full queue answers 429)")
		cacheN       = fs.Int("cache", serve.DefaultCacheEntries, "result cache capacity (entries)")
		journalPath  = fs.String("journal", "", "journal path for persistent results (empty = in-memory only)")
		trialTimeout = fs.Duration("trial-timeout", 0, "per-trial wall deadline (0 = none)")
		retryAfter   = fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
		sweepMax     = fs.Int("max-sweep-trials", serve.DefaultMaxSweepTrials, "largest trial count one sweep request may expand into")
		debugAddr    = fs.String("debug-addr", "", "serve pprof, /debug/vars and /metrics on this address (e.g. :6060)")
		metricsOut   = fs.String("metrics-out", "", "write a metrics snapshot (JSONL) here on exit")
		traceOut     = fs.String("trace-out", "", "append completed request span trees (JSONL) here")
		smoke        = fs.Bool("smoke", false, "run a loopback self-test and exit")
	)
	min := map[string]int{"workers": 0, "queue": 0, "cache": 0, "max-sweep-trials": 0}
	if err := parseFlags(fs, args, min); err != nil {
		return err
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		fmt.Println("kpart-serve: smoke ok")
		return nil
	}

	// A service is always instrumented: the registry feeds /healthz's
	// richer siblings /debug/vars and /metrics and the per-endpoint
	// counters.
	reg := registry("kpart_serve", true)
	harness.SetMetrics(reg)

	var spans *span.Collector
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if err := spans.Err(); err != nil {
				logf("span sink: %v", err)
			}
			if err := f.Close(); err != nil {
				logf("closing %s: %v", *traceOut, err)
			}
		}()
		spans = span.NewCollector(f)
		logf("tracing request spans to %s", *traceOut)
	}
	if err := serveDebug(*debugAddr); err != nil {
		return err
	}

	var journal *harness.Journal
	if *journalPath != "" {
		// Reopening resumes an existing journal (that is the point of a
		// service restart) and degenerates to a fresh one on first boot.
		j, err := openJournal(*journalPath, "kpart-serve", true)
		if err != nil {
			return err
		}
		journal = j
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheN,
		Journal:        journal,
		Registry:       reg,
		Spans:          spans,
		RunOptions:     harness.RunOptions{TrialTimeout: *trialTimeout},
		RetryAfter:     *retryAfter,
		MaxSweepTrials: *sweepMax,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logf("listening on http://%s", ln.Addr())

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}
	logf("draining (in-flight trials abort; completed ones are journaled)")

	// Drain order matters: abort trial execution first so blocked
	// handlers return, then let the HTTP server finish those responses,
	// and only then flush the journal nobody can touch anymore.
	srv.Shutdown()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		logf("http shutdown: %v", err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return fmt.Errorf("closing journal: %w", err)
		}
	}
	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		logf("wrote %s", *metricsOut)
	}
	return ctx.Err()
}

// runSmoke boots a loopback server with a throwaway journal and walks
// the API end to end: trial round-trip, content-addressed cache hit
// (byte-identical body), result replay by key, health, and a streamed
// sweep. It is `make serve-smoke`.
func runSmoke() error {
	dir, err := os.MkdirTemp("", "kpart-serve-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal, err := openJournal(dir+"/smoke.journal", "kpart-serve", false)
	if err != nil {
		return err
	}
	reg := obs.New("kpart_serve")
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8, Journal: journal, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	read := func(resp *http.Response, err error) (*http.Response, []byte, error) {
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp, b, err
	}
	post := func(path, body string) (*http.Response, []byte, error) {
		return read(http.Post(base+path, "application/json", strings.NewReader(body)))
	}
	get := func(path string) (*http.Response, []byte, error) { return read(http.Get(base + path)) }

	// 1. Trial round-trip (miss) and cache hit with an identical body.
	resp1, body1, err := post("/v1/trials", `{"n":24,"k":4,"seed":7}`)
	if err != nil {
		return err
	}
	if resp1.StatusCode != http.StatusOK {
		return fmt.Errorf("trial: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Kpart-Cache"); got != "miss" {
		return fmt.Errorf("first trial: cache header %q, want miss", got)
	}
	resp2, body2, err := post("/v1/trials", `{"n":24,"k":4,"seed":7}`)
	if err != nil {
		return err
	}
	if got := resp2.Header.Get("X-Kpart-Cache"); got != "lru" {
		return fmt.Errorf("second trial: cache header %q, want lru", got)
	}
	if !bytes.Equal(body1, body2) {
		return fmt.Errorf("cache replay is not byte-identical:\n%s\n%s", body1, body2)
	}
	fmt.Println("smoke: trial round-trip + byte-identical cache hit")

	// 2. Replay by content hash.
	var rec struct {
		SpecKey string `json:"spec_key"`
	}
	if err := json.Unmarshal(body1, &rec); err != nil {
		return err
	}
	resp3, body3, err := get("/v1/results/" + rec.SpecKey)
	if err != nil {
		return err
	}
	if resp3.StatusCode != http.StatusOK || !bytes.Equal(body1, body3) {
		return fmt.Errorf("result replay: status %d, identical=%t", resp3.StatusCode, bytes.Equal(body1, body3))
	}
	fmt.Println("smoke: GET /v1/results/" + rec.SpecKey)

	// 3. Health.
	resp4, _, err := get("/healthz")
	if err != nil {
		return err
	}
	if resp4.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp4.StatusCode)
	}
	fmt.Println("smoke: healthz ok")

	// 3b. Prometheus exposition: the trial above must show in the RED
	// metrics.
	respM, mBody, err := get("/metrics")
	if err != nil {
		return err
	}
	if respM.StatusCode != http.StatusOK || !bytes.Contains(mBody, []byte("serve_http_trials_requests_total")) {
		return fmt.Errorf("/metrics: status %d, body %q", respM.StatusCode, mBody)
	}
	fmt.Println("smoke: /metrics exposition ok")

	// 4. Sweep stream: trials+1 NDJSON lines (records + point trailer).
	resp5, body5, err := post("/v1/sweeps", `{"n":12,"k":3,"trials":4,"seed":1}`)
	if err != nil {
		return err
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(body5))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines++
		}
	}
	if resp5.StatusCode != http.StatusOK || lines != 5 {
		return fmt.Errorf("sweep: status %d, %d NDJSON lines (want 5): %s", resp5.StatusCode, lines, body5)
	}
	fmt.Println("smoke: sweep streamed 4 records + aggregate trailer")

	// 5. Clean shutdown: drain the pool, stop HTTP, flush the journal.
	srv.Shutdown()
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := journal.Close(); err != nil {
		return fmt.Errorf("closing journal: %w", err)
	}
	if journal.Len() != 5 {
		return fmt.Errorf("journal holds %d trials, want 5", journal.Len())
	}
	fmt.Println("smoke: graceful shutdown, journal flushed with 5 trials")
	return nil
}
