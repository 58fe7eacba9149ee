package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"sync"
	"testing"
)

func TestCounterAndGaugeConcurrent(t *testing.T) {
	r := New("test")
	c := r.Counter("c")
	g := r.Gauge("g")
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*per)
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("gauge after Set = %d, want -3", g.Value())
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := New("test")
	r.Counter("x").Add(5)
	r.Counter("x").Add(7)
	if got := r.Counter("x").Value(); got != 12 {
		t.Fatalf("counter x = %d, want 12 (same underlying metric)", got)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a name across kinds did not panic")
		}
	}()
	r := New("test")
	r.Counter("x")
	r.Gauge("x")
}

func TestHistogramBuckets(t *testing.T) {
	r := New("test")
	h := r.Histogram("h")
	// Values chosen to pin the power-of-two bucketing: bucket i holds
	// [2^(i-1), 2^i), bucket 0 holds 0.
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1024} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+7+8+1024 {
		t.Fatalf("sum = %d", h.Sum())
	}
	b := h.Buckets()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 11: 1}
	for i, c := range b {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i    int
		want uint64
	}{{0, 0}, {1, 1}, {2, 3}, {3, 7}, {10, 1023}, {64, math.MaxUint64}}
	for _, c := range cases {
		if got := BucketBound(c.i); got != c.want {
			t.Fatalf("BucketBound(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestNopRegistry(t *testing.T) {
	r := Nop()
	if r.Enabled() {
		t.Fatal("Nop registry reports enabled")
	}
	c := r.Counter("c")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nop counter recorded")
	}
	h := r.Histogram("h")
	h.Observe(5)
	if h.Count() != 0 {
		t.Fatal("nop histogram recorded")
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Fatalf("nop snapshot has %d metrics", len(snap.Metrics))
	}
	// Publishing a disabled registry must be a no-op, not a panic.
	r.PublishExpvar()
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := New("roundtrip")
	r.Counter("sim/interactions").Add(1000)
	r.Gauge("phase/groupings_complete").Set(-2)
	h := r.Histogram("phase/grouping_cost")
	h.Observe(3)
	h.Observe(100)

	snap := r.Snapshot()
	if snap.Registry != "roundtrip" || len(snap.Metrics) != 3 {
		t.Fatalf("snapshot %+v", snap)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var header struct{ Registry string }
	if err := dec.Decode(&header); err != nil {
		t.Fatal(err)
	}
	back := Snapshot{Registry: header.Registry}
	for dec.More() {
		var m Metric
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		back.Metrics = append(back.Metrics, m)
	}
	if back.Registry != snap.Registry || len(back.Metrics) != len(snap.Metrics) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	m, ok := back.Find("sim/interactions")
	if !ok || m.Value != 1000 || m.Kind != "counter" {
		t.Fatalf("counter metric %+v", m)
	}
	g, ok := back.Find("phase/groupings_complete")
	if !ok || g.Gauge != -2 {
		t.Fatalf("gauge metric %+v", g)
	}
	hm, ok := back.Find("phase/grouping_cost")
	if !ok || hm.Count != 2 || hm.Sum != 103 || len(hm.Buckets) != 2 {
		t.Fatalf("histogram metric %+v", hm)
	}
}

func TestSnapshotOrderStable(t *testing.T) {
	r := New("order")
	r.Counter("z")
	r.Counter("a")
	r.Histogram("m")
	snap := r.Snapshot()
	if snap.Metrics[0].Name != "a" || snap.Metrics[1].Name != "m" || snap.Metrics[2].Name != "z" {
		t.Fatalf("snapshot not name-sorted: %+v", snap.Metrics)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := New("obs_test_publish")
	r.Counter("c").Add(42)
	r.PublishExpvar()
	r.PublishExpvar() // second publish must not panic
	v := expvar.Get("obs_test_publish")
	if v == nil {
		t.Fatal("registry not published")
	}
	if s := v.String(); !bytes.Contains([]byte(s), []byte(`"value":42`)) {
		t.Fatalf("expvar output missing counter: %s", s)
	}
}
