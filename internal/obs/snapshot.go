package obs

import (
	"bufio"
	"encoding/json"
	"expvar"
	"io"
	"os"
)

// Bucket is one non-empty histogram bucket in a snapshot: Le is the
// inclusive upper bound of the power-of-two range, Count the
// observations that fell in it.
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Metric is the serialized state of one metric. Exactly one of the
// kind-specific field groups is populated.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter" | "gauge" | "histogram"
	// Value holds a counter's total.
	Value uint64 `json:"value,omitempty"`
	// Gauge holds a gauge's current value (may be negative).
	Gauge int64 `json:"gauge,omitempty"`
	// Count/Sum/Buckets hold a histogram's state.
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry's metrics, ordered by
// metric name. It is the exchange format for JSONL export and expvar.
type Snapshot struct {
	Registry string   `json:"registry"`
	Metrics  []Metric `json:"metrics"`
}

// Snapshot copies the current value of every registered metric. Metrics
// are read atomically one by one; the snapshot is consistent per metric,
// not across metrics, which is the usual (and sufficient) guarantee for
// progress reporting and post-run export.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Registry: r.Name()}
	if !r.Enabled() {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names() {
		switch r.kinds[name] {
		case "counter":
			snap.Metrics = append(snap.Metrics, Metric{
				Name: name, Kind: "counter", Value: r.counter[name].Value(),
			})
		case "gauge":
			snap.Metrics = append(snap.Metrics, Metric{
				Name: name, Kind: "gauge", Gauge: r.gauge[name].Value(),
			})
		case "histogram":
			h := r.hist[name]
			m := Metric{Name: name, Kind: "histogram", Count: h.Count(), Sum: h.Sum()}
			for i, c := range h.Buckets() {
				if c > 0 {
					m.Buckets = append(m.Buckets, Bucket{Le: BucketBound(i), Count: c})
				}
			}
			snap.Metrics = append(snap.Metrics, m)
		}
	}
	return snap
}

// Find returns the metric with the given name, if present.
func (s Snapshot) Find(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// WriteJSONL writes the snapshot as JSON Lines: one Metric object per
// line, prefixed by a header line carrying the registry name. The format
// is append-friendly, so successive snapshots of a long run can share a
// file.
func (s Snapshot) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := struct {
		Registry string `json:"registry"`
		Metrics  int    `json:"metrics"`
	}{s.Registry, len(s.Metrics)}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, m := range s.Metrics {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the snapshot as JSONL to path, creating or
// truncating it.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PublishExpvar publishes the registry under its name in the process's
// expvar namespace, so -debug-addr's /debug/vars shows a live snapshot.
// Publishing the same registry name twice is a no-op (expvar itself
// panics on duplicates).
func (r *Registry) PublishExpvar() {
	if !r.Enabled() {
		return
	}
	if expvar.Get(r.name) != nil {
		return
	}
	expvar.Publish(r.name, expvar.Func(func() any { return r.Snapshot() }))
}
