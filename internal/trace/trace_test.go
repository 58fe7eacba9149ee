package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

// recorded is one seeded run of the k-partition protocol streamed
// through a Writer: the JSONL it wrote, and that JSONL decoded.
type recorded struct {
	p      *core.Protocol
	raw    []byte
	hdr    Header
	events []Event
}

func record(t *testing.T, n, k int, steps uint64) recorded {
	t.Helper()
	r := recorded{p: core.MustNew(k)}
	var buf bytes.Buffer
	w := &Writer{W: &buf}
	if _, err := sim.Run(population.New(r.p, n), sched.NewRandom(42), sim.After{N: steps},
		sim.Options{Hooks: []sim.Hook{w}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r.raw = buf.Bytes()
	var err error
	if r.hdr, r.events, err = Decode(bytes.NewReader(r.raw)); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriterCapturesAll(t *testing.T) {
	rec := record(t, 10, 3, 500)
	if len(rec.events) != 500 {
		t.Fatalf("recorded %d events for 500 interactions", len(rec.events))
	}
	if rec.hdr.N != 10 || rec.hdr.Protocol != "uniform-3-partition" {
		t.Fatalf("header %+v", rec.hdr)
	}
	for i, e := range rec.events {
		if e.Step != uint64(i+1) {
			t.Fatalf("event %d has step %d", i, e.Step)
		}
	}
}

// Decode loses nothing: encoding what it returns reproduces the stream
// byte for byte.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rec := record(t, 8, 3, 300)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(rec.hdr); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), rec.raw) {
		t.Fatal("re-encoded trace differs from the stream the Writer wrote")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, _, err := Decode(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, _, err := Decode(strings.NewReader(`{"protocol":"x","n":3,"states":4}` + "\ngarbage\n")); err == nil {
		t.Error("garbage event accepted")
	}
}

func TestReplayMatches(t *testing.T) {
	rec := record(t, 9, 4, 1000)
	pop, err := Replay(rec.p, rec.hdr, rec.events)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Interactions() != 1000 {
		t.Fatalf("replay applied %d interactions", pop.Interactions())
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	rec := record(t, 9, 4, 200)
	p := rec.p

	// Wrong protocol size.
	if _, err := Replay(core.MustNew(5), rec.hdr, rec.events); !errors.Is(err, ErrDiverged) {
		t.Errorf("state-count mismatch not detected: %v", err)
	}

	// A population below two agents, which population.New refuses, or
	// above MaxN, which kpart trace's fairness meter could not afford.
	for _, n := range []int{1, 0, -5, MaxN + 1, 10_000_000} {
		hdr := rec.hdr
		hdr.N = n
		if _, err := Replay(p, hdr, nil); !errors.Is(err, ErrDiverged) {
			t.Errorf("n = %d not detected: %v", n, err)
		}
	}
	hdr := rec.hdr
	hdr.N = MaxN
	if _, err := Replay(p, hdr, nil); err != nil {
		t.Errorf("n = MaxN refused: %v", err)
	}

	// Tamper with an event's before-state.
	ev := append([]Event(nil), rec.events...)
	ev[50].BeforeP ^= 1
	if _, err := Replay(p, rec.hdr, ev); !errors.Is(err, ErrDiverged) {
		t.Errorf("before-state tamper not detected: %v", err)
	}

	// Tamper with an after-state.
	ev = append([]Event(nil), rec.events...)
	ev[10].AfterP = ev[10].BeforeP ^ 1
	if _, err := Replay(p, rec.hdr, ev); !errors.Is(err, ErrDiverged) {
		t.Errorf("after-state tamper not detected: %v", err)
	}

	// Invalid pair.
	ev = append([]Event(nil), rec.events...)
	ev[0].J = ev[0].I
	if _, err := Replay(p, rec.hdr, ev); !errors.Is(err, ErrDiverged) {
		t.Errorf("self pair not detected: %v", err)
	}
}

func TestWriterStreamsEquivalentTrace(t *testing.T) {
	p := core.MustNew(3)
	pop := population.New(p, 8)
	var buf bytes.Buffer
	w := &Writer{W: &buf}
	if _, err := sim.Run(pop, sched.NewRandom(7), sim.After{N: 400},
		sim.Options{Hooks: []sim.Hook{w}}); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	hdr, events, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 400 {
		t.Fatalf("streamed %d events", len(events))
	}
	if _, err := Replay(p, hdr, events); err != nil {
		t.Fatal(err)
	}
}

// Determinism: the same seed must produce bit-identical traces — the
// reproducibility contract EXPERIMENTS.md relies on.
func TestSameSeedSameTrace(t *testing.T) {
	rec1 := record(t, 12, 4, 600)
	rec2 := record(t, 12, 4, 600)
	if !bytes.Equal(rec1.raw, rec2.raw) {
		t.Fatal("traces differ across identical runs")
	}
}
