// Package obs is the observability layer of the simulation stack: a
// zero-dependency metrics core (counters, gauges, power-of-two-bucket
// histograms behind a named Registry), sim.Hook instrumentation for
// rule-level and convergence-phase accounting, a deterministic live
// progress reporter for long runs, and debug endpoints (pprof + expvar)
// any binary can opt into with one flag.
//
// The paper's whole evaluation metric is an interaction count, and the
// costliest workloads legitimately apply 10^8–10^9 encounters, so the
// design constraint is that instrumentation must cost nothing when it is
// off and almost nothing when it is on:
//
//   - every metric has an atomic implementation (safe for the parallel
//     trial runner in internal/harness) and a no-op implementation;
//   - a disabled Registry hands out the no-ops, so hot loops can call
//     Inc/Observe unconditionally;
//   - hooks hold resolved Counter/Histogram values, never name-lookup on
//     the step path.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter interface {
	Inc()
	Add(delta uint64)
	Value() uint64
}

// Gauge is a metric that can go up and down.
type Gauge interface {
	Set(v int64)
	Add(delta int64)
	Value() int64
}

// Histogram accumulates a distribution of uint64 observations in
// power-of-two buckets: bucket i counts observations v with
// bits.Len64(v) == i, i.e. bucket 0 holds v = 0 and bucket i ≥ 1 holds
// v in [2^(i-1), 2^i). Exponential buckets fit the heavy-tailed,
// many-orders-of-magnitude quantities of this repository (interaction
// counts, per-grouping costs, trial wall times) at fixed memory.
type Histogram interface {
	Observe(v uint64)
	// Count is the number of observations; Sum their total.
	Count() uint64
	Sum() uint64
	// Buckets returns the per-bucket counts, index = bits.Len64(v).
	Buckets() []uint64
}

// numBuckets covers bits.Len64 of every uint64 (0..64).
const numBuckets = 65

// BucketBound returns the inclusive upper bound of bucket i: the largest
// value v with bits.Len64(v) == i.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// --- atomic implementations -------------------------------------------------

type atomicCounter struct{ v atomic.Uint64 }

func (c *atomicCounter) Inc()             { c.v.Add(1) }
func (c *atomicCounter) Add(delta uint64) { c.v.Add(delta) }
func (c *atomicCounter) Value() uint64    { return c.v.Load() }

type atomicGauge struct{ v atomic.Int64 }

func (g *atomicGauge) Set(v int64)     { g.v.Store(v) }
func (g *atomicGauge) Add(delta int64) { g.v.Add(delta) }
func (g *atomicGauge) Value() int64    { return g.v.Load() }

type atomicHistogram struct {
	count, sum atomic.Uint64
	buckets    [numBuckets]atomic.Uint64
}

func (h *atomicHistogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

func (h *atomicHistogram) Count() uint64 { return h.count.Load() }
func (h *atomicHistogram) Sum() uint64   { return h.sum.Load() }

func (h *atomicHistogram) Buckets() []uint64 {
	out := make([]uint64, numBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// --- no-op implementations --------------------------------------------------

type nopCounter struct{}

func (nopCounter) Inc()          {}
func (nopCounter) Add(uint64)    {}
func (nopCounter) Value() uint64 { return 0 }

type nopGauge struct{}

func (nopGauge) Set(int64)    {}
func (nopGauge) Add(int64)    {}
func (nopGauge) Value() int64 { return 0 }

type nopHistogram struct{}

func (nopHistogram) Observe(uint64)    {}
func (nopHistogram) Count() uint64     { return 0 }
func (nopHistogram) Sum() uint64       { return 0 }
func (nopHistogram) Buckets() []uint64 { return nil }
