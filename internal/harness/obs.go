package harness

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Observability: the harness records per-trial metrics (wall time,
// interactions, convergence) into a process-wide registry. The default
// is the shared no-op registry, so the parallel trial runner pays
// nothing unless a binary opts in with SetMetrics; all registry metrics
// are atomic, so recording is safe from every worker.
var (
	obsMu  sync.RWMutex
	obsReg = obs.Nop()
)

// SetMetrics installs the registry RunTrial records into. Passing nil
// restores the no-op registry.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.Nop()
	}
	obsMu.Lock()
	obsReg = r
	obsMu.Unlock()
}

// Metrics returns the registry trials are currently recorded into.
func Metrics() *obs.Registry {
	obsMu.RLock()
	defer obsMu.RUnlock()
	return obsReg
}

// observeTrial records one finished trial. Wall time lands in a
// power-of-two histogram of microseconds (trial durations span ~1 µs
// model-check-sized runs to minutes-long Figure 6 tails).
//
// Three more counters are recorded at their decision points rather than
// here: harness/timeouts (RunTrialCtx, trials that exceeded their wall
// deadline), harness/canceled (trials abandoned because the batch
// context fired), and harness/resumed (RunTimedCtx, trials answered from
// the sweep journal instead of re-run).
func observeTrial(reg *obs.Registry, res TrialResult, err error, wall time.Duration) {
	reg.Counter("harness/trials").Inc()
	if err != nil {
		reg.Counter("harness/errors").Inc()
		return
	}
	if !res.Converged {
		reg.Counter("harness/unconverged").Inc()
	}
	reg.Histogram("harness/trial_wall_us").Observe(uint64(wall.Microseconds()))
	reg.Histogram("harness/trial_interactions").Observe(res.Interactions)
	reg.Histogram("harness/trial_productive").Observe(res.Productive)
}
