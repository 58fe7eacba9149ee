// Package serve turns the reproduction's batch harness into a
// traffic-serving system: a stdlib-only net/http JSON API that accepts
// trial and sweep requests, executes them on a bounded worker pool
// behind an explicit admission queue, and memoizes results in a
// content-addressed cache keyed by harness.SpecKey.
//
// Endpoints (`kpart serve` runs the service):
//
//	POST /v1/trials            run (or replay) one trial; JSON in, Record out
//	POST /v1/sweeps            run one sweep point; streams NDJSON Records
//	GET  /v1/results/{speckey} replay a completed trial by content hash
//	GET  /healthz              liveness + queue/cache/journal stats
//
// The load-bearing properties, each pinned by an integration test:
//
//   - Validation happens before admission: a spec that wraps
//     harness.ErrInvalidSpec is answered 400 and never enqueued.
//   - Backpressure is explicit: when the admission queue is full,
//     POST /v1/trials answers 429 with Retry-After instead of growing an
//     unbounded goroutine pile; sweeps block on admission trial by
//     trial, so one long point throttles its own connection.
//   - Results are content-addressed: identical specs are computed once
//     and replayed byte-for-byte, from the LRU or — after a restart —
//     from the sweep journal on disk.
//   - Shutdown is graceful: cancelling the pool aborts in-flight trials
//     through the harness's context plumbing, completed trials are
//     already journaled, and a restarted server serves them from disk.
//
// Wall-clock discipline: spec.go and cache.go are deterministic (the
// content-addressed identity of a result must not depend on when it was
// computed); server.go and pool.go are the HTTP/executor edge, where
// latency metrics and trial wall times live. The determinism analyzer
// (internal/lint) mechanizes this split.
package serve
