package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/twin"
)

// serveLoad is the request mix against an in-process server.
type serveLoad struct {
	hot int // size of the hot set the hits replay
	// Miss specs: the agent engine at n in [agentN, agentN+agentSpan) and
	// the count engine at countN.
	agentN, agentSpan, agentK int
	countN, countK            int
	// Prediction questions: n in [predN, predN+predSpan), k from predK.
	predN, predSpan int
	predK           []int
}

func serveMixLoad(tiny bool) serveLoad {
	if tiny {
		return serveLoad{hot: 4, agentN: 24, agentSpan: 4, agentK: 4, countN: 96, countK: 4,
			predN: 200, predSpan: 200, predK: []int{4, 6}}
	}
	return serveLoad{hot: 32, agentN: 96, agentSpan: 9, agentK: 4, countN: 960, countK: 6,
		predN: 200, predSpan: 4_800, predK: []int{4, 5, 6, 8}}
}

// Request classes of the mix.
const (
	classHit = iota
	classMiss
	classPredict
	numClasses
)

// request is one generated request with what the check needs to know.
type request struct {
	class int
	path  string
	body  []byte
	hot   int               // hot-set index (hits)
	spec  harness.TrialSpec // the trial asked for (misses)
}

// Stream tags of the serve-mix inputs.
const (
	tagHot = 0x407
	tagMix = 0x313
)

// hotSpec is the i-th spec of the hot set: alternately an agent and a
// count engine trial, shaped like the misses.
func (w serveLoad) hotSpec(seed uint64, i int) harness.TrialSpec {
	r := rng.New(rng.StreamSeed(seed, tagHot, uint64(i)))
	return w.trialSpec(r, i%2 == 0)
}

func (w serveLoad) trialSpec(r *rng.Rand, agent bool) harness.TrialSpec {
	if agent {
		return harness.TrialSpec{N: w.agentN + r.Intn(w.agentSpan), K: w.agentK, Seed: r.Uint64(), Engine: harness.EngineAgent}
	}
	return harness.TrialSpec{N: w.countN, K: w.countK, Seed: r.Uint64(), Engine: harness.EngineCount}
}

func trialBody(s harness.TrialSpec) []byte {
	b, err := json.Marshal(serve.TrialRequest{N: s.N, K: s.K, Seed: s.Seed, Engine: s.Engine.String()})
	if err != nil {
		panic(err) // a struct of ints and strings always encodes
	}
	return b
}

// mix generates the seeded request sequence: ≈90% hot-set replays, ≈8%
// fresh trial specs (half agent, half count engine), ≈2% predictions for
// (n, k) pairs not asked before in the run. A run sends a prefix of the
// same sequence on every run with the same seed.
type mix struct {
	w     serveLoad
	r     *rng.Rand
	hot   []harness.TrialSpec
	asked map[[2]int]bool
}

func newMix(w serveLoad, seed uint64) *mix {
	m := &mix{w: w, r: rng.New(rng.StreamSeed(seed, tagMix)), asked: make(map[[2]int]bool)}
	for i := 0; i < w.hot; i++ {
		m.hot = append(m.hot, w.hotSpec(seed, i))
	}
	return m
}

func (m *mix) next() request {
	switch u := m.r.Float64(); {
	case u < 0.90:
		i := m.r.Intn(len(m.hot))
		return request{class: classHit, path: "/v1/trials", body: trialBody(m.hot[i]), hot: i}
	case u < 0.98:
		s := m.w.trialSpec(m.r, m.r.Intn(2) == 0)
		return request{class: classMiss, path: "/v1/trials", body: trialBody(s), spec: s}
	}
	return request{class: classPredict, path: "/v1/predict", body: m.predictBody(m.freshPair())}
}

// freshPair draws a prediction question not asked before.
func (m *mix) freshPair() [2]int {
	for {
		q := [2]int{m.w.predN + m.r.Intn(m.w.predSpan), m.w.predK[m.r.Intn(len(m.w.predK))]}
		if !m.asked[q] {
			m.asked[q] = true
			return q
		}
	}
}

func (m *mix) predictBody(q [2]int) []byte {
	b, err := json.Marshal(serve.PredictRequest{N: q[0], K: q[1]})
	if err != nil {
		panic(err)
	}
	return b
}

// server is a serve.Server on a loopback listener with its client.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	// hot[i] is the miss response body for the hot set's i-th spec, the
	// bytes every later hit must reproduce.
	hot [][]byte
}

// reply is one response as the client saw it.
type reply struct {
	status int
	cache  string // X-Kpart-Cache
	trace  string // X-Kpart-Trace
	body   []byte
	dur    time.Duration
}

func (s *server) do(path string, body []byte) (reply, error) {
	start := time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Kpart-Cache"),
		trace:  resp.Header.Get(span.Header),
		body:   b,
		dur:    time.Since(start),
	}, nil
}

// startServer starts a server and warms its cache with the hot set.
func startServer(m *mix, cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(cfg),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i, spec := range m.hot {
		rep, err := s.do("/v1/trials", trialBody(spec))
		if err == nil {
			err = checkMiss(rep, spec)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warming hot spec %d: %w", i, err)
		}
		s.hot = append(s.hot, rep.body)
	}
	return s, nil
}

// close stops the listener, every connection and the worker pool, and
// waits for the serving goroutine to return.
func (s *server) close() {
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Shutdown()
}

// checkHit: a hit is served from the LRU, byte-identical to the miss body
// that first computed it.
func checkHit(rep reply, want []byte) error {
	if rep.status != http.StatusOK || rep.cache != "lru" {
		return fmt.Errorf("hit: status %d, cache %q", rep.status, rep.cache)
	}
	if !bytes.Equal(rep.body, want) {
		return fmt.Errorf("hit: body differs from the miss body for the same spec")
	}
	return nil
}

// checkMiss: a miss is computed fresh, names the spec it was asked for,
// and passes the trial check.
func checkMiss(rep reply, spec harness.TrialSpec) error {
	if rep.status != http.StatusOK || rep.cache != "miss" {
		return fmt.Errorf("miss: status %d, cache %q: %s", rep.status, rep.cache, rep.body)
	}
	var rec serve.Record
	if err := json.Unmarshal(rep.body, &rec); err != nil {
		return fmt.Errorf("miss: %w", err)
	}
	if rec.SpecKey != harness.SpecKey(spec) {
		return fmt.Errorf("miss: spec key %s, want %s", rec.SpecKey, harness.SpecKey(spec))
	}
	return checkTrial(rec.Result, nil)
}

// checkPredict: a prediction has a finite, positive expected_interactions.
// It returns the rung that answered.
func checkPredict(rep reply) (string, error) {
	if rep.status != http.StatusOK {
		return "", fmt.Errorf("predict: status %d: %s", rep.status, rep.body)
	}
	var rec serve.PredictRecord
	if err := json.Unmarshal(rep.body, &rec); err != nil {
		return "", fmt.Errorf("predict: %w", err)
	}
	if e := rec.Prediction.ExpectedInteractions; !(e > 0) || math.IsInf(e, 0) {
		return "", fmt.Errorf("predict n=%d k=%d: expected_interactions %v", rec.Prediction.N, rec.Prediction.K, e)
	}
	return rec.Prediction.Model, nil
}

// sent is one checked request of a phase.
type sent struct {
	class int
	at    time.Duration // offset from the phase start
	rep   reply
	spec  harness.TrialSpec
	model string
}

// clients is the number of closed-loop clients. One client keeps a hit
// from waiting behind the other client's miss for a core on a 2-CPU host,
// which made the hit latencies bimodal and swing from run to run.
const clients = 1

// drive runs the closed-loop client over the mix for dur and checks every
// response.
func drive(s *server, m *mix, dur time.Duration, t *tally) ([]sent, time.Duration) {
	var log []sent
	start := time.Now()
	for len(log) == 0 || time.Since(start) < dur {
		req := m.next()
		at := time.Since(start)
		rep, err := s.do(req.path, req.body)
		rec := sent{class: req.class, at: at, rep: rep, spec: req.spec}
		if err == nil {
			switch req.class {
			case classHit:
				err = checkHit(rep, s.hot[req.hot])
			case classMiss:
				err = checkMiss(rep, req.spec)
			case classPredict:
				rec.model, err = checkPredict(rep)
			}
		}
		t.check(err)
		rec.rep.body = nil
		log = append(log, rec)
	}
	return log, time.Since(start)
}

// runServe is an untraced run.
func runServe(w serveLoad, cfg config, t *tally) (map[string]float64, error) {
	m := newMix(w, cfg.seed)
	setUp := func() (*server, error) { return startServer(m, serve.Config{}) }
	var setups []float64
	s, err := timeSetup(setupBefore, &setups, setUp, (*server).close)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	log, phase := drive(s, m, cfg.dur, t)
	runtime.ReadMemStats(&m1)
	s.close()
	last, err := timeSetup(setupAfter, &setups, setUp, (*server).close)
	if err != nil {
		return nil, err
	}
	last.close()
	ops := make([]op, len(log))
	for i, r := range log {
		ops[i] = op{start: r.at, dur: r.rep.dur}
	}
	msPerOp, p50 := opStats(ops, phase)
	return map[string]float64{
		"setup_s":            median(setups),
		"ms_per_op":          msPerOp,
		"op_p50_ms":          p50,
		"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(log)),
	}, nil
}

// classLatencies returns each class's client latencies in ms.
func classLatencies(log []sent) [numClasses][]float64 {
	var out [numClasses][]float64
	for _, r := range log {
		out[r.class] = append(out[r.class], ms(r.rep.dur))
	}
	return out
}

func meanLatency(log []sent) float64 {
	var sum time.Duration
	for _, r := range log {
		sum += r.rep.dur
	}
	return ms(sum) / float64(len(log))
}

// traceServe is a traced run: half the time on an untraced server for the
// per-class figures, half on a server with a span collector and a metrics
// registry for the serving layers, then the edge, twin and engine layers
// timed directly on the mix's own specs.
func traceServe(w serveLoad, cfg config, t *tally) (map[string]float64, error) {
	m := newMix(w, cfg.seed)
	var setups []float64
	s, err := timeSetup(setupBefore, &setups, func() (*server, error) { return startServer(m, serve.Config{}) }, (*server).close)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, phase := drive(s, m, cfg.dur/2, t)
	runtime.ReadMemStats(&m1)
	s.close()
	lat := classLatencies(plain)
	vals := map[string]float64{
		"alloc_bytes_per_req": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(plain)),
		"req_per_s":           float64(len(plain)) / phase.Seconds(),
		"hit_p50_ms":          quantile(lat[classHit], 0.5),
		"hit_p90_ms":          quantile(lat[classHit], 0.9),
		"miss_p50_ms":         quantile(lat[classMiss], 0.5),
		"miss_p90_ms":         quantile(lat[classMiss], 0.9),
		"predict_p50_ms":      quantile(lat[classPredict], 0.5),
	}

	col := span.NewCollector(nil)
	reg := obs.New("serve")
	ts, err := startServer(m, serve.Config{Spans: col, Registry: reg})
	if err != nil {
		return nil, err
	}
	traced, _ := drive(ts, m, cfg.dur/2, t)
	ts.close()
	if err := serveLayers(col, reg, traced, vals); err != nil {
		return nil, err
	}
	vals["span.overhead_share"] = ratio(meanLatency(traced)-meanLatency(plain), meanLatency(plain))

	log := append(plain, traced...)
	if err := mixLayers(m, log, t, vals); err != nil {
		return nil, err
	}
	vals["failed_share"] = t.share()
	return vals, nil
}

// serveLayers reads the serving layers from the spans and the registry of
// the traced phase.
func serveLayers(col *span.Collector, reg *obs.Registry, log []sent, vals map[string]float64) error {
	requests := make(map[string]span.Span)
	var queue, trial []float64
	for _, sp := range col.Export() {
		switch sp.Name {
		case "request":
			if attr(sp, "cache") == "lru" {
				requests[sp.Trace] = sp
			}
		case "queue":
			if attr(sp, "outcome") == "" {
				queue = append(queue, float64(sp.WallDurUS)/1e3)
			}
		case "trial":
			trial = append(trial, float64(sp.WallDurUS)/1e3)
		}
	}
	var handler, transport []float64
	for _, r := range log {
		if r.class != classHit {
			continue
		}
		sp, ok := requests[r.rep.trace]
		if !ok {
			return fmt.Errorf("no request span for hit trace %q", r.rep.trace)
		}
		h := float64(sp.WallDurUS) / 1e3
		handler = append(handler, h)
		transport = append(transport, ms(r.rep.dur)-h)
	}
	snap := reg.Snapshot()
	counter := func(name string) float64 {
		mt, _ := snap.Find(name)
		return float64(mt.Value)
	}
	hits, misses := counter("serve/cache_hits"), counter("serve/cache_misses")
	vals["serve.handler_hit_ms_p50"] = median(handler)
	vals["serve.transport_hit_ms_p50"] = median(transport)
	vals["serve.queue_wait_ms_p50"] = median(queue)
	vals["serve.trial_ms_p50"] = median(trial)
	vals["serve.hit_share"] = ratio(hits, hits+misses)
	vals["serve.coalesced"] = counter("serve/coalesced")
	vals["serve.rejected"] = counter("serve/rejected")
	return nil
}

func attr(sp span.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// twinSamples is how many fresh prediction questions the twin layer times.
const twinSamples = 15

// replaySamples bounds how many of the mix's misses are replayed per
// engine for the engine and harness layers.
const replaySamples = 40

// mixLayers times the edge functions, the twin and the engines directly
// on the mix's own inputs: fresh prediction questions from the same
// generator, and a sample of the misses, run and replayed through the
// engines and then put through the edge functions.
func mixLayers(m *mix, log []sent, t *tally, vals map[string]float64) error {
	lumped, predictions := 0, 0
	var specs []harness.TrialSpec
	var results []harness.TrialResult
	var replays [harness.EngineBatch + 1][]harness.TrialSpec // by engine
	for _, r := range log {
		switch r.class {
		case classPredict:
			predictions++
			if r.model == "lumped" {
				lumped++
			}
		case classMiss:
			byEngine := &replays[r.spec.Engine]
			if len(*byEngine) < replaySamples {
				*byEngine = append(*byEngine, r.spec)
			}
		}
	}
	vals["twin.lumped_share"] = ratio(float64(lumped), float64(predictions))

	var times []float64
	for i := 0; i < twinSamples; i++ {
		q := m.freshPair()
		start := time.Now()
		pr, err := twin.Auto(twin.Spec{N: q[0], K: q[1]})
		times = append(times, ms(time.Since(start)))
		if err == nil && !(pr.ExpectedInteractions > 0) {
			err = fmt.Errorf("twin n=%d k=%d: expected_interactions %v", q[0], q[1], pr.ExpectedInteractions)
		}
		t.check(err)
	}
	vals["twin.predict_ms_p50"] = median(times)

	l := layers{clock: clockNanos()}
	var wall time.Duration
	for _, byEngine := range replays {
		for _, spec := range byEngine {
			start := time.Now()
			res, err := harness.RunTrialCtx(context.Background(), spec, harness.RunOptions{})
			wall += time.Since(start)
			if err := checkTrial(res, err); err != nil {
				t.check(err)
				continue
			}
			t.check(replay(spec, res, &l))
			specs = append(specs, spec)
			results = append(results, res)
		}
	}
	for name, v := range l.values() {
		vals[name] = v
	}
	vals["harness.overhead_share"] = ratio(float64(wall)-l.engineNanos, float64(wall))
	return edgeCosts(specs, results, vals)
}
