package serve

// This file is the deterministic half of the service: request documents,
// their validation, and the canonical result encoding. Nothing here may
// read the wall clock — the cache is content-addressed (a record's bytes
// are a pure function of the trial spec that produced it), and the
// determinism analyzer enforces that for this file. Timing lives at the
// HTTP/executor edge (server.go, pool.go).

import (
	"encoding/json"
	"fmt"

	"repro/internal/harness"
)

// TrialRequest is the JSON body of POST /v1/trials: the wire form of a
// harness.TrialSpec, with the engine spelled the way the binaries' flags
// spell it ("agent", "count" or "batch") and the scenario dimensions in
// their flag syntax too ("ring", "weak", "at=100,events=1,leave=2",
// ...). Scenario fields require the agent engine; ValidateSpec rejects
// impossible combinations before the request is admitted.
type TrialRequest struct {
	N               int    `json:"n"`
	K               int    `json:"k"`
	Seed            uint64 `json:"seed"`
	MaxInteractions uint64 `json:"max_interactions,omitempty"`
	Grouping        bool   `json:"grouping,omitempty"`
	Engine          string `json:"engine,omitempty"`
	BatchSize       uint64 `json:"batch_size,omitempty"`
	// Topology is the interaction graph in harness.ParseTopology syntax:
	// "complete" (default), "ring", "star", "grid:RxC", "regular:D" or
	// "regular:D@SEED".
	Topology string `json:"topology,omitempty"`
	// Fairness selects the scheduler family: "uniform" (default) or
	// "weak" (the weak-fairness adversary).
	Fairness string `json:"fairness,omitempty"`
	// Churn is a join/leave schedule in harness.ParseChurn syntax, e.g.
	// "at=500,events=2,every=300,join=1,leave=2,crash"; "" or "none"
	// disables churn.
	Churn string `json:"churn,omitempty"`
}

// Spec validates the request and returns the trial spec it names.
// Errors wrap harness.ErrInvalidSpec; the server maps them to 400 and
// never enqueues the request.
func (r TrialRequest) Spec() (harness.TrialSpec, error) {
	eng, err := harness.ParseEngine(r.Engine)
	if err != nil {
		return harness.TrialSpec{}, err
	}
	topo, err := harness.ParseTopology(r.Topology)
	if err != nil {
		return harness.TrialSpec{}, err
	}
	fair, err := harness.ParseFairness(r.Fairness)
	if err != nil {
		return harness.TrialSpec{}, err
	}
	churn, err := harness.ParseChurn(r.Churn)
	if err != nil {
		return harness.TrialSpec{}, err
	}
	spec := harness.TrialSpec{
		N: r.N, K: r.K,
		Seed:            r.Seed,
		MaxInteractions: r.MaxInteractions,
		Grouping:        r.Grouping,
		Engine:          eng,
		BatchSize:       r.BatchSize,
		Topology:        topo,
		Fairness:        fair,
		Churn:           churn,
	}
	if err := harness.ValidateSpec(spec); err != nil {
		return harness.TrialSpec{}, err
	}
	return spec, nil
}

// DefaultMaxSweepTrials bounds how many trials one POST /v1/sweeps may
// expand into; a sweep is admitted trial by trial, so the bound caps the
// work one request can hold a connection open for, not the queue.
const DefaultMaxSweepTrials = 10_000

// SweepRequest is the JSON body of POST /v1/sweeps: one aggregated
// parameter point, seeded exactly like the batch binaries
// (StreamSeed(seed, point_id, trial)), so a served sweep reproduces a
// `kpart experiments` sweep point for point. The embedded TrialRequest
// names the trial every cell runs, in the same JSON keys as
// POST /v1/trials, with its seed as the root seed.
type SweepRequest struct {
	TrialRequest
	Trials  int    `json:"trials"`
	PointID uint64 `json:"point_id,omitempty"`
}

// Sweep validates the request against maxTrials (<= 0 selects
// DefaultMaxSweepTrials) and returns the expanded sweep spec.
func (r SweepRequest) Sweep(maxTrials int) (harness.SweepSpec, error) {
	if maxTrials <= 0 {
		maxTrials = DefaultMaxSweepTrials
	}
	if r.Trials < 1 {
		return harness.SweepSpec{}, fmt.Errorf("%w: trials=%d (want >= 1)", harness.ErrInvalidSpec, r.Trials)
	}
	if r.Trials > maxTrials {
		return harness.SweepSpec{}, fmt.Errorf("%w: trials=%d exceeds the per-sweep bound %d", harness.ErrInvalidSpec, r.Trials, maxTrials)
	}
	spec, err := r.Spec()
	if err != nil {
		return harness.SweepSpec{}, err
	}
	return harness.SweepSpec{TrialSpec: spec, Trials: r.Trials, PointID: r.PointID}, nil
}

// Record is the canonical document for one completed trial: what POST
// /v1/trials returns, what each NDJSON sweep line carries, and what GET
// /v1/results/{speckey} replays. Its encoded bytes are content-addressed
// by SpecKey, so a cache hit — from the LRU or from a journal loaded by a
// restarted server — is byte-identical to the response that first
// computed it.
type Record struct {
	SpecKey string              `json:"spec_key"`
	Result  harness.TrialResult `json:"result"`
	WallUS  uint64              `json:"wall_us"`
}

// Encode marshals the record into its canonical byte form (no trailing
// newline; NDJSON writers add their own).
func (rec Record) Encode() ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding record %s: %w", rec.SpecKey, err)
	}
	return b, nil
}
