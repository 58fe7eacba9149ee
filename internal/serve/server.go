package serve

// The HTTP edge: routing, request decoding, per-endpoint metrics, and
// the streaming sweep handler. Wall-clock use (latency histograms,
// Retry-After) is legitimate here; result computation and caching are
// deterministic and live in pool.go/cache.go/spec.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// Config assembles a Server. The zero value is usable: GOMAXPROCS
// workers, DefaultQueueDepth admission slots, DefaultCacheEntries cache
// entries, no journal, no metrics.
type Config struct {
	// Workers is the trial worker count (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	QueueDepth int
	// CacheEntries bounds the result LRU (0 = DefaultCacheEntries).
	CacheEntries int
	// Journal, when non-nil, persists completed trials and answers
	// lookups for results computed before a restart. The caller keeps
	// ownership (`kpart serve` closes it after Shutdown).
	Journal *harness.Journal
	// Registry records per-endpoint and pool metrics; nil disables.
	Registry *obs.Registry
	// Spans collects request span trees (see internal/obs/span); nil
	// disables tracing entirely.
	Spans *span.Collector
	// RunOptions is the per-trial execution policy (the timeout).
	// Journal and Progress are ignored; the pool journals itself.
	RunOptions harness.RunOptions
	// RetryAfter is the hint sent with 429 responses (0 = 1s).
	RetryAfter time.Duration
	// MaxSweepTrials bounds one sweep request's expansion
	// (0 = DefaultMaxSweepTrials).
	MaxSweepTrials int
}

// Server is the HTTP simulation service. Create with New, expose
// Handler() on a listener, stop with Shutdown.
type Server struct {
	pool           *Pool
	predictions    *Cache
	journal        *harness.Journal
	reg            *obs.Registry
	spans          *span.Collector
	mux            *http.ServeMux
	retryAfter     time.Duration
	maxSweepTrials int
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Nop()
	}
	s := &Server{
		journal:        cfg.Journal,
		reg:            reg,
		spans:          cfg.Spans,
		mux:            http.NewServeMux(),
		retryAfter:     cfg.RetryAfter,
		maxSweepTrials: cfg.MaxSweepTrials,
	}
	if s.retryAfter <= 0 {
		s.retryAfter = time.Second
	}
	s.pool = NewPool(cfg.Workers, cfg.QueueDepth, cfg.RunOptions, cfg.Journal, NewCache(cfg.CacheEntries), reg)
	s.predictions = NewCache(cfg.CacheEntries)
	s.mux.Handle("POST /v1/trials", s.instrument("trials", s.handleTrial))
	s.mux.Handle("POST /v1/sweeps", s.instrument("sweeps", s.handleSweep))
	s.mux.Handle("POST /v1/predict", s.instrument("predict", s.handlePredict))
	s.mux.Handle("GET /v1/results/{speckey}", s.instrument("results", s.handleResult))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", reg.PrometheusHandler())
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the execution core (health introspection, tests).
func (s *Server) Pool() *Pool { return s.pool }

// Shutdown drains the server: in-flight trials are aborted through the
// context plumbing, queued jobs fail fast, and workers are awaited. The
// journal (if any) stays open — its owner closes it once the HTTP
// listener is down, so late handler lookups never race a closed file.
func (s *Server) Shutdown() { s.pool.Close() }

// instrument wraps an endpoint with its request counter and latency
// histogram (serve/http/<name>/requests, .../latency_us, and a
// per-status-class counter).
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	requests := s.reg.Counter("serve/http/" + name + "/requests")
	latency := s.reg.Histogram("serve/http/" + name + "/latency_us")
	classes := [6]obs.Counter{}
	for c := 2; c <= 5; c++ {
		classes[c] = s.reg.Counter(fmt.Sprintf("serve/http/%s/status_%dxx", name, c))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		latency.Observe(uint64(time.Since(start).Microseconds()))
		if c := sw.status / 100; c >= 2 && c <= 5 {
			classes[c].Inc()
		}
	})
}

// statusWriter captures the response status for the per-class counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errorDoc is the JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorDoc{Error: msg})
}

// maxRequestBody bounds request bodies; a trial or sweep spec is a few
// hundred bytes, so 1 MiB is generous and still refuses abuse.
const maxRequestBody = 1 << 20

// decodeJSON strictly decodes a bounded request body into v (unknown
// fields are rejected so spec typos fail loudly instead of running a
// default trial).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// cacheHeader is the response header reporting where a trial record
// came from: "miss" (freshly computed), "lru", or "journal".
const cacheHeader = "X-Kpart-Cache"

// startRequestSpan roots a request span for the trial identified by
// key. The trace ID is the client's X-Kpart-Trace value when present
// and valid, else the canonical spec-derived ID; both go through the
// collector's occurrence sequencer (a repeated ID becomes "id.2", so
// two requests never share one trace), and the response echoes the ID
// the trace was actually recorded under. With no collector configured,
// the returned span is nil and the whole downstream pipeline stays
// untraced. The returned finish func ends the span with the request's
// wall interval; call it exactly once.
func (s *Server) startRequestSpan(w http.ResponseWriter, r *http.Request, endpoint, key string) (*span.ActiveSpan, func()) {
	if s.spans == nil {
		return nil, func() {}
	}
	var tr *span.Trace
	if id := r.Header.Get(span.Header); id != "" && span.ValidID(id) {
		tr = s.spans.TraceForID(id)
	} else {
		tr = s.spans.TraceForSpec(key)
	}
	w.Header().Set(span.Header, tr.ID())
	root := tr.Root("request").
		SetAttr("endpoint", endpoint).
		SetAttr("speckey", key)
	sw := span.StartWall()
	return root, func() {
		sw.StopInto(root)
		root.End()
	}
}

// handleTrial: POST /v1/trials. Validate before admission; serve from
// the content-addressed store when possible; otherwise admit without
// blocking — a full queue is the client's backpressure signal.
func (s *Server) handleTrial(w http.ResponseWriter, r *http.Request) {
	var req TrialRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := harness.SpecKey(spec)
	root, finish := s.startRequestSpan(w, r, "trials", key)
	defer finish()
	if body, src, ok := s.pool.Lookup(key); ok {
		root.SetAttr("cache", src)
		writeRecord(w, src, body)
		return
	}
	job, err := s.pool.TrySubmit(spec, root)
	if err != nil {
		root.SetAttr("outcome", "rejected")
		s.writeAdmissionError(w, err)
		return
	}
	_, body, err := job.Wait(r.Context())
	if err != nil {
		root.SetAttr("outcome", "error")
		s.writeTrialError(w, err)
		return
	}
	root.SetAttr("cache", "miss")
	writeRecord(w, "miss", body)
}

// handleResult: GET /v1/results/{speckey}. Pure replay — never computes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("speckey")
	body, src, ok := s.pool.Lookup(key)
	if !ok {
		writeJSONError(w, http.StatusNotFound, "no completed trial under key "+key)
		return
	}
	writeRecord(w, src, body)
}

// handleSweep: POST /v1/sweeps. Streams one NDJSON Record per trial in
// trial order as results become available, then a trailer line with the
// aggregated point. Admission is blocking per trial (backpressure), so
// a sweep can never trip the queue into rejecting interactive trial
// requests for long.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	sweep, err := req.Sweep(s.maxSweepTrials)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	specs := sweep.Specs()

	// Pipeline: a submitter goroutine resolves or admits each spec in
	// order (blocking on queue space), fanning completions into
	// per-trial slots; the response loop streams slot i as soon as it
	// is ready, so results flow while later trials still compute.
	type slot struct {
		rec  Record
		body []byte
		err  error
	}
	slots := make([]chan slot, len(specs))
	for i := range slots {
		slots[i] = make(chan slot, 1)
	}
	go func() {
		for i, spec := range specs {
			key := harness.SpecKey(spec)
			if body, _, ok := s.pool.Lookup(key); ok {
				var rec Record
				if err := json.Unmarshal(body, &rec); err != nil {
					slots[i] <- slot{err: err}
					continue
				}
				slots[i] <- slot{rec: rec, body: body}
				continue
			}
			job, err := s.pool.Submit(r.Context(), spec, nil)
			if err != nil {
				slots[i] <- slot{err: err}
				continue
			}
			go func(i int, job *Job) {
				rec, body, err := job.Wait(r.Context())
				slots[i] <- slot{rec: rec, body: body, err: err}
			}(i, job)
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	results := make([]harness.TrialResult, 0, len(specs))
	for i := range slots {
		var out slot
		select {
		case out = <-slots[i]:
		case <-r.Context().Done():
			out = slot{err: r.Context().Err()}
		}
		if out.err != nil {
			// The stream is already flowing (status 200 is committed), so
			// the failure is reported in-band as an error line.
			line, _ := json.Marshal(errorDoc{Error: "sweep aborted at trial " + strconv.Itoa(i) + ": " + out.err.Error()})
			_, _ = w.Write(append(line, '\n'))
			return
		}
		_, _ = w.Write(append(out.body, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
		results = append(results, out.rec.Result)
	}
	trailer := struct {
		Point harness.Point `json:"point"`
	}{harness.Aggregate(sweep.N, sweep.K, results)}
	line, err := json.Marshal(trailer)
	if err != nil {
		return
	}
	_, _ = w.Write(append(line, '\n'))
}

// healthDoc is the GET /healthz body.
type healthDoc struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCap      int    `json:"queue_cap"`
	Inflight      int    `json:"inflight"`
	CacheEntries  int    `json:"cache_entries"`
	JournalTrials int    `json:"journal_trials,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := healthDoc{
		Status:       "ok",
		Workers:      s.pool.Workers(),
		QueueDepth:   s.pool.Depth(),
		QueueCap:     s.pool.QueueCap(),
		Inflight:     s.pool.Inflight(),
		CacheEntries: s.pool.cache.Len(),
	}
	if s.pool.Closed() {
		doc.Status = "draining"
	}
	if s.journal != nil {
		doc.JournalTrials = s.journal.Len()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// writeRecord sends a stored record with its cache-provenance header.
func writeRecord(w http.ResponseWriter, src string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cacheHeader, src)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}

// writeAdmissionError maps pool admission failures to HTTP: a full
// queue is 429 with Retry-After (backpressure, not failure), a draining
// pool is 503.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
		writeJSONError(w, http.StatusTooManyRequests, "admission queue is full; retry later")
	case errors.Is(err, ErrDraining):
		writeJSONError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// writeTrialError maps execution failures: invalid specs (should have
// been caught at validation) are 400, cancellation during drain is 503,
// anything else 500.
func (s *Server) writeTrialError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, harness.ErrInvalidSpec):
		writeJSONError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, ErrDraining):
		writeJSONError(w, http.StatusServiceUnavailable, "trial aborted: "+err.Error())
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}
