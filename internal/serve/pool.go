package serve

// The executor edge of the service: a fixed worker pool behind an
// explicit bounded admission queue. Admission is the backpressure
// mechanism — when the queue is full, TrySubmit fails and the HTTP layer
// answers 429 instead of piling up goroutines. Workers execute trials
// through the harness's context plumbing, so cancelling the pool's base
// context (SIGINT) aborts in-flight trials at their next poll; completed
// trials are already journaled and cached. Wall-clock use is legitimate
// here (trial wall times are metadata, not results) — this file is in
// the determinism analyzer's HTTP/executor-edge allowlist for
// internal/serve.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// Pool errors. The HTTP layer maps ErrQueueFull to 429 (with
// Retry-After), ErrDraining to 503, and ErrTrialPanic to 500. A trial
// panic is recovered so that it fails only its own job, with the panic
// value in the error's text.
var (
	ErrQueueFull  = errors.New("serve: admission queue is full")
	ErrDraining   = errors.New("serve: server is draining")
	ErrTrialPanic = errors.New("serve: trial panicked")
)

// DefaultQueueDepth bounds the admission queue when a Config leaves it 0.
const DefaultQueueDepth = 64

// runTrialFn is harness.RunTrialCtx, indirected so tests can pin
// admission and drain behavior with a controllable executor. Swapped
// only before a pool exists and restored after it closes.
var runTrialFn = harness.RunTrialCtx

// Job is one admitted trial: submit it, then Wait for its outcome.
// Completion is a broadcast (the done channel closes once the outcome
// is stored), so any number of coalesced waiters can Wait on one job.
type Job struct {
	Spec harness.TrialSpec
	Key  string
	done chan struct{} // closed after out is stored
	out  outcome

	// parent is the submitting request's span; the worker roots the
	// trial's span subtree under it (nil = untraced). queueSpan covers
	// admission to worker pickup.
	parent    *span.ActiveSpan
	queueSpan *span.ActiveSpan
	queueWall span.Stopwatch

	enqueued time.Time // set at admission, for the queue-wait histogram
}

type outcome struct {
	rec  Record
	body []byte
	err  error
}

// Wait blocks until the job completes or ctx fires. The job keeps
// running (and still fills the cache and journal) if the waiter gives
// up.
func (j *Job) Wait(ctx context.Context) (Record, []byte, error) {
	select {
	case <-j.done:
		return j.out.rec, j.out.body, j.out.err
	case <-ctx.Done():
		return Record{}, nil, ctx.Err()
	}
}

// Pool is the bounded execution core: admission queue, workers, the
// content-addressed cache, and the optional journal that persists
// results across restarts. Create one with NewPool, stop it with Close.
type Pool struct {
	ctx     context.Context
	cancel  context.CancelFunc
	opts    harness.RunOptions
	journal *harness.Journal
	cache   *Cache
	flight  *flightGroup
	workers int

	mu     sync.RWMutex // serializes closed vs. sends on queue
	closed bool         // guarded by mu
	queue  chan *Job
	wg     sync.WaitGroup

	inflight atomic.Int64

	// Metrics are resolved once at construction (obs registry contract:
	// no name lookups on the hot path).
	cacheHits   obs.Counter
	journalHits obs.Counter
	cacheMisses obs.Counter
	evictions   obs.Counter
	admitted    obs.Counter
	rejected    obs.Counter
	coalesced   obs.Counter
	trialsRun   obs.Counter
	trialErrors obs.Counter
	trialPanics obs.Counter
	journalErrs obs.Counter
	depthGauge  obs.Gauge
	inflightG   obs.Gauge
	trialWallUS obs.Histogram
	queueWaitUS obs.Histogram
}

// NewPool starts workers goroutines consuming a queueDepth-bounded
// admission queue (0 selects GOMAXPROCS workers / DefaultQueueDepth).
// opts is the per-trial execution policy; its Journal and Progress
// fields are ignored (the pool journals completed trials itself through
// journal, which may be nil). reg may be nil for no metrics.
func NewPool(workers, queueDepth int, opts harness.RunOptions, journal *harness.Journal, cache *Cache, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	if cache == nil {
		cache = NewCache(0)
	}
	if reg == nil {
		reg = obs.Nop()
	}
	opts.Journal = nil
	opts.Progress = 0
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		ctx: ctx, cancel: cancel,
		opts: opts, journal: journal, cache: cache, workers: workers,
		flight: newFlightGroup(),
		queue:  make(chan *Job, queueDepth),

		cacheHits:   reg.Counter("serve/cache_hits"),
		journalHits: reg.Counter("serve/journal_hits"),
		cacheMisses: reg.Counter("serve/cache_misses"),
		evictions:   reg.Counter("serve/cache_evictions"),
		admitted:    reg.Counter("serve/admitted"),
		rejected:    reg.Counter("serve/rejected"),
		coalesced:   reg.Counter("serve/coalesced"),
		trialsRun:   reg.Counter("serve/trials_run"),
		trialErrors: reg.Counter("serve/trial_errors"),
		trialPanics: reg.Counter("serve/trial_panics"),
		journalErrs: reg.Counter("serve/journal_errors"),
		depthGauge:  reg.Gauge("serve/queue_depth"),
		inflightG:   reg.Gauge("serve/inflight"),
		trialWallUS: reg.Histogram("serve/trial_wall_us"),
		queueWaitUS: reg.Histogram("serve/queue_wait_us"),
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Lookup serves key from the LRU or, failing that, from the journal a
// restarted server loaded from disk (re-encoding the entry and warming
// the LRU). The source string is "lru" or "journal".
func (p *Pool) Lookup(key string) (body []byte, source string, ok bool) {
	if body, ok := p.cache.Get(key); ok {
		p.cacheHits.Inc()
		return body, "lru", true
	}
	if p.journal != nil {
		if e, ok := p.journal.LookupKey(key); ok {
			rec := Record{SpecKey: key, Result: e.Result, WallUS: e.WallUS}
			if body, err := rec.Encode(); err == nil {
				p.evictions.Add(uint64(p.cache.Put(key, body)))
				p.journalHits.Inc()
				return body, "journal", true
			}
		}
	}
	p.cacheMisses.Inc()
	return nil, "", false
}

// newJob wraps spec for submission. parent (nil = untraced) becomes the
// root of the job's span subtree; the queue span starts here so it
// covers the full admission-to-pickup wait, and it must exist before
// the job is visible to a worker.
func newJob(spec harness.TrialSpec, parent *span.ActiveSpan) *Job {
	j := &Job{
		Spec:     spec,
		Key:      harness.SpecKey(spec),
		done:     make(chan struct{}),
		parent:   parent,
		enqueued: time.Now(),
	}
	j.queueSpan = parent.Child("queue")
	j.queueWall = span.StartWall()
	return j
}

// abandonQueue ends the queue span of a job that never reached a
// worker (rejected, drained, cancelled, or coalesced at admission).
func (j *Job) abandonQueue(reason string) {
	j.queueWall.StopInto(j.queueSpan)
	j.queueSpan.SetAttr("outcome", reason).End()
}

// failAdmission completes a job that was turned away at admission: the
// queue span ends and err is stored and broadcast through done. This
// must run on every abandon path, because between flight.join and
// flight.leave a concurrent submitter may have coalesced onto this job
// — closing done with the admission error is what lets that waiter
// fail fast instead of blocking forever on a job no worker will run.
func (j *Job) failAdmission(reason string, err error) {
	j.abandonQueue(reason)
	j.out = outcome{err: err}
	close(j.done)
}

// TrySubmit admits spec without blocking: ErrQueueFull when the
// admission queue is at capacity, ErrDraining after Close. An identical
// spec already in flight is coalesced — the existing job is returned
// and no new work enters the queue. parent (nil = untraced) roots the
// job's span subtree.
func (p *Pool) TrySubmit(spec harness.TrialSpec, parent *span.ActiveSpan) (*Job, error) {
	return p.admit(spec, parent, func(j *Job) (string, error) {
		select {
		case p.queue <- j:
			return "", nil
		default:
			p.rejected.Inc()
			return "rejected", ErrQueueFull
		}
	})
}

// Submit admits spec, blocking until queue space frees up, ctx fires, or
// the pool drains. Sweeps use it so a long point applies backpressure to
// its own connection instead of failing mid-stream. In-flight identical
// specs coalesce exactly as in TrySubmit.
func (p *Pool) Submit(ctx context.Context, spec harness.TrialSpec, parent *span.ActiveSpan) (*Job, error) {
	// Close cancels p.ctx before closing the queue channel, so a sender
	// blocked here always exits via ErrDraining rather than racing the
	// close.
	return p.admit(spec, parent, func(j *Job) (string, error) {
		select {
		case p.queue <- j:
			return "", nil
		case <-ctx.Done():
			return "cancelled", ctx.Err()
		case <-p.ctx.Done():
			return "draining", ErrDraining
		}
	})
}

// admit is the admission body TrySubmit and Submit share: it refuses
// spec while the pool drains, coalesces it onto an identical job in
// flight, and otherwise hands its new job to enqueue, which waits for a
// queue slot in its caller's way. A job enqueue refuses leaves the
// flight group and fails with enqueue's reason and error.
func (p *Pool) admit(spec harness.TrialSpec, parent *span.ActiveSpan, enqueue func(*Job) (string, error)) (*Job, error) {
	j := newJob(spec, parent)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		j.failAdmission("draining", ErrDraining)
		return nil, ErrDraining
	}
	if prior, joined := p.flight.join(j.Key, j); joined {
		p.coalesced.Inc()
		j.abandonQueue("coalesced")
		parent.SetAttr("coalesced", "true")
		return prior, nil
	}
	if reason, err := enqueue(j); err != nil {
		p.flight.leave(j.Key, j)
		j.failAdmission(reason, err)
		return nil, err
	}
	p.admitted.Inc()
	p.depthGauge.Add(1)
	return j, nil
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.depthGauge.Add(-1)
		p.queueWaitUS.Observe(uint64(time.Since(j.enqueued).Microseconds()))
		j.queueWall.StopInto(j.queueSpan)
		j.queueSpan.End()
		out := p.execute(j)
		// Store-then-close is the broadcast: every Wait (including
		// coalesced waiters that joined later) observes out after done.
		// Leaving the flight group first keeps the window where a new
		// submitter could join a finished job closed — post-completion
		// submissions start fresh and hit the cache instead.
		p.flight.leave(j.Key, j)
		j.out = out
		close(j.done)
	}
}

// execute runs one admitted job. An identical spec may have completed
// while this one sat in the queue, so the cache is consulted once more
// before paying for the simulation.
func (p *Pool) execute(j *Job) outcome {
	if body, ok := p.cache.Get(j.Key); ok {
		p.cacheHits.Inc()
		var rec Record
		if err := json.Unmarshal(body, &rec); err == nil {
			return outcome{rec: rec, body: body}
		}
	}
	p.inflight.Add(1)
	p.inflightG.Add(1)
	defer func() {
		p.inflight.Add(-1)
		p.inflightG.Add(-1)
	}()
	ctx := p.ctx
	if j.parent != nil {
		// The worker roots the harness's trial/engine spans under the
		// submitting request's span.
		ctx = span.NewContext(ctx, j.parent)
	}
	start := time.Now()
	res, err := p.runTrial(ctx, j.Spec)
	wall := time.Since(start)
	if err != nil {
		p.trialErrors.Inc()
		return outcome{err: err}
	}
	p.trialsRun.Inc()
	p.trialWallUS.Observe(uint64(wall.Microseconds()))
	rec := Record{SpecKey: j.Key, Result: res, WallUS: uint64(wall.Microseconds())}
	body, encErr := rec.Encode()
	if encErr != nil {
		return outcome{err: encErr}
	}
	if p.journal != nil {
		// A journal append failure must not fail the response — the
		// result is correct, only its persistence is degraded.
		if jerr := p.journal.Append(res, wall); jerr != nil {
			p.journalErrs.Inc()
		}
	}
	p.evictions.Add(uint64(p.cache.Put(j.Key, body)))
	return outcome{rec: rec, body: body}
}

// runTrial runs one trial, turning a panic into ErrTrialPanic (counted
// in serve/trial_panics) so that execute fails the job without caching
// or journaling anything.
func (p *Pool) runTrial(ctx context.Context, spec harness.TrialSpec) (res harness.TrialResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			p.trialPanics.Inc()
			err = fmt.Errorf("%w: %v", ErrTrialPanic, v)
		}
	}()
	return runTrialFn(ctx, spec, p.opts)
}

// Depth reports the number of queued (not yet picked up) jobs.
func (p *Pool) Depth() int { return len(p.queue) }

// QueueCap reports the admission queue's capacity.
func (p *Pool) QueueCap() int { return cap(p.queue) }

// Workers reports the worker count.
func (p *Pool) Workers() int { return p.workers }

// Inflight reports how many trials are executing right now.
func (p *Pool) Inflight() int { return int(p.inflight.Load()) }

// Closed reports whether the pool has begun draining.
func (p *Pool) Closed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// Close drains the pool: the base context is cancelled first (in-flight
// trials abort at their next cancellation poll, queued jobs fail fast),
// then the queue is closed and the workers are awaited. Idempotent.
func (p *Pool) Close() {
	p.cancel()
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
