package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one printed metric: its name and unit as BENCHMARK.json
// lists them. README.md says how each is measured and which end-to-end
// metric each per-layer metric should move, on which workload.
type metric struct{ name, unit string }

// endToEnd is printed by untraced runs. Every workload measures every one
// of them on its own operation (README.md, "Operations").
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ms_per_op", "ms"},
	{"op_p50_ms", "ms"},
	{"alloc_bytes_per_op", "B"},
}

// perLayer is printed by traced runs. A layer the workload does not run
// reads 0.
var perLayer = []metric{
	// Per-engine and per-class figures, from the traced run's
	// untraced passes.
	{"agent_ms_per_trial", "ms"},
	{"count_ms_per_trial", "ms"},
	{"batch_ms_per_trial", "ms"},
	{"alloc_bytes_per_trial", "B"},
	{"alloc_bytes_per_req", "B"},
	{"req_per_s", "1/s"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"predict_p50_ms", "ms"},
	{"failed_share", "share"},
	// internal/sched, internal/population, internal/sim.
	{"sched.ns_per_draw", "ns"},
	{"population.ns_per_interact", "ns"},
	{"sim.stop_ns_per_step", "ns"},
	{"sim.productive_share", "share"},
	// internal/countsim Sim.
	{"countsim.sim.ns_per_step", "ns"},
	{"countsim.sim.interactions_per_step", "count"},
	// internal/countsim Batch and the Check hook (internal/core).
	{"countsim.batch.fallback_share", "share"},
	{"countsim.batch.fallback_ns_per_step", "ns"},
	{"countsim.batch.aggregate_ns_per_batch", "ns"},
	{"countsim.batch.clamped_per_batch", "count"},
	{"countsim.batch.fallback_ms_per_trial", "ms"},
	{"countsim.batch.aggregate_ms_per_trial", "ms"},
	{"countsim.batch.audit_ns_per_call", "ns"},
	{"core.check_ns_per_call", "ns"},
	{"core.check_share", "share"},
	{"core.check_ms_per_trial", "ms"},
	// internal/harness.
	{"harness.overhead_share", "share"},
	{"harness.speckey_ns", "ns"},
	// internal/serve.
	{"serve.handler_hit_ms_p50", "ms"},
	{"serve.transport_hit_ms_p50", "ms"},
	{"serve.spec_ns", "ns"},
	{"serve.encode_ns", "ns"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.trial_ms_p50", "ms"},
	{"serve.hit_share", "share"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	// internal/twin.
	{"twin.predict_ms_p50", "ms"},
	{"twin.lumped_share", "share"},
	// internal/obs/span.
	{"span.overhead_share", "share"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// buildResult fills the metric set of the run kind from vals. A name
// outside the set is a bug in the workload code.
func buildResult(traced bool, vals map[string]float64, t *tally) (result, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	known := make(map[string]bool, len(set))
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]value, len(set)),
	}
	for _, m := range set {
		known[m.name] = true
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	for name := range vals {
		if !known[name] {
			return result{}, fmt.Errorf("metric %s is not in the printed set", name)
		}
	}
	return res, nil
}

// tally counts checked operations and failures.
type tally struct {
	attempted int
	failed    int
	first     error
}

// check records one checked operation; a non-nil err counts as a failure.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

func (t *tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// op is one timed operation of a measured phase.
type op struct {
	start, dur time.Duration // start is an offset from the phase start
}

// windows is the number of equal time windows a phase is split into;
// the per-window figures are reduced by their median, so a burst of
// load from outside the benchmark that covers one window moves nothing.
const windows = 7

// opStats reduces a phase's operations to the shared end-to-end figures:
// the median over windows of the mean operation time, and the median
// operation time.
func opStats(ops []op, phase time.Duration) (msPerOp, p50ms float64) {
	type win struct {
		n   int
		sum time.Duration
	}
	ws := make([]win, windows)
	durs := make([]float64, 0, len(ops))
	for _, o := range ops {
		i := int(int64(o.start) * windows / int64(phase))
		if i >= windows {
			i = windows - 1
		}
		w := &ws[i]
		w.n++
		w.sum += o.dur
		durs = append(durs, ms(o.dur))
	}
	var means []float64
	for _, w := range ws {
		if w.n > 0 {
			means = append(means, ms(w.sum)/float64(w.n))
		}
	}
	return median(means), median(durs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// An untraced run sets up setupBefore times before its measured phase
// and setupAfter times after it; setup_s is the median of all of them.
// A set-up takes well under a second, so the host's speed at that moment
// swings it; the reps after the phase sample the host at another time.
const (
	setupBefore = 3
	setupAfter  = 4
)

// timeSetup runs setUp reps times, appending each wall time in seconds to
// secs and closing every instance but the last, which it returns. On
// error no instance is left open.
func timeSetup[T any](reps int, secs *[]float64, setUp func() (T, error), closeFn func(T)) (T, error) {
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(last)
		}
		start := time.Now()
		v, err := setUp()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		*secs = append(*secs, time.Since(start).Seconds())
		last = v
	}
	return last, nil
}
