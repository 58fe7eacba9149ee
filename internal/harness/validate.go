package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/protocol"
)

// MaxK is the largest group count a trial spec may request: the protocol
// uses 3k−2 states and protocol.MaxStates bounds the table size.
const MaxK = (protocol.MaxStates + 2) / 3

// String names the engine the way the binaries' -engine flags spell it.
func (e Engine) String() string {
	switch e {
	case EngineAgent:
		return "agent"
	case EngineCount:
		return "count"
	case EngineBatch:
		return "batch"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine maps an -engine flag value ("agent", "count" or "batch")
// to an Engine. Unknown names return an ErrInvalidSpec-wrapped error so
// callers can treat them like any other malformed spec field.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "agent":
		return EngineAgent, nil
	case "count":
		return EngineCount, nil
	case "batch":
		return EngineBatch, nil
	}
	return EngineAgent, fmt.Errorf("%w: unknown engine %q (want agent, count or batch)", ErrInvalidSpec, s)
}

// ValidatePartition checks the pure problem parameters (n, k) — group
// count in range for the state-table bound, population size admitting a
// stable target signature — independent of any execution policy. It is
// the shared admission predicate for everything keyed by (n, k) alone:
// trial specs embed it via ValidateSpec, and the analytical twin's
// prediction specs (internal/twin, POST /v1/predict) use it directly, so
// a spec the simulator would reject is rejected by the oracle too, with
// the same ErrInvalidSpec sentinel.
func ValidatePartition(n, k int) error {
	if k < 2 {
		return fmt.Errorf("%w: k=%d (%v)", ErrInvalidSpec, k, core.ErrBadK)
	}
	if k > MaxK {
		return fmt.Errorf("%w: k=%d exceeds the %d-state table bound (max k %d)",
			ErrInvalidSpec, k, protocol.MaxStates, MaxK)
	}
	// Proto is safe now that k is in range; TargetCounts rejects
	// populations with no stable signature (n < 3).
	if _, err := Proto(k).TargetCounts(n); err != nil {
		return fmt.Errorf("%w: n=%d k=%d: %v", ErrInvalidSpec, n, k, err)
	}
	return nil
}

// ValidateSpec checks that spec identifies a runnable trial WITHOUT
// running it: group count in range, population size admitting a target
// signature, and a known engine. Failures wrap ErrInvalidSpec — the same
// sentinel runTrial returns — so admission layers (the HTTP service
// rejects invalid specs with 400 before enqueueing them) and the retry
// policy agree on what "unfixable" means.
func ValidateSpec(spec TrialSpec) error {
	if err := ValidatePartition(spec.N, spec.K); err != nil {
		return err
	}
	switch spec.Engine {
	case EngineAgent, EngineCount, EngineBatch:
	default:
		return fmt.Errorf("%w: unknown engine %d", ErrInvalidSpec, spec.Engine)
	}
	// BatchSize is a mode selector of the batched engine only; on any
	// other engine a non-zero value would silently change the spec's
	// content hash without changing the run. n is positive here (the
	// TargetCounts check passed), so the conversion is safe; the bound
	// divides n rather than doubling the size, which would wrap for
	// sizes of 2⁶³ and above.
	if spec.BatchSize != 0 {
		if spec.Engine != EngineBatch {
			return fmt.Errorf("%w: batch size %d set for engine %s (only engine batch batches)",
				ErrInvalidSpec, spec.BatchSize, spec.Engine)
		}
		if spec.BatchSize > uint64(spec.N)/2 {
			return fmt.Errorf("%w: batch size %d needs 2·size <= n = %d (disjoint pairs)",
				ErrInvalidSpec, spec.BatchSize, spec.N)
		}
	}
	// The scenario axes (topology, fairness, churn) have their own
	// validator in scenario.go: engine compatibility, mandatory caps,
	// and the churn-schedule walk all live there.
	return validateScenario(spec)
}
