// Package span is the distributed-tracing layer of the simulation
// stack: explicit, deterministic span trees that follow one trial from
// the HTTP edge (serve admission and queue) through the harness trial
// into the engines (per-#gk grouping phases), exported as JSONL and
// rendered by `kpart spans`.
//
// The design constraint is the repository's determinism bar: a span
// tree's identity — trace ID, span IDs, parent links, names, attributes
// and the logical (interaction-count) intervals — must be a pure
// function of the trial spec, so two runs of the same spec export
// byte-comparable trees. Concretely:
//
//   - Trace IDs derive from harness.SpecKey content hashes plus a
//     per-process occurrence sequence (the second request for the same
//     spec in one process gets ".2"), never from randomness or time.
//   - Span IDs are the trace's start-order sequence, so a trace built
//     by one request pipeline numbers identically run to run.
//   - Engine-scope code records logical intervals only: StartSeq/EndSeq
//     are interaction counts, the paper's own time metric.
//   - Wall clock enters exclusively through wall.go, the sanctioned
//     timing edge (the determinism analyzer polices every other file of
//     this package like an engine package). Wall fields are attachment
//     metadata, excluded from identity comparisons.
//
// Propagation is explicit: a context carries the current *ActiveSpan,
// and the X-Kpart-Trace HTTP header carries a trace ID across the wire.
package span

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Attr is one key=value annotation on a span. Attrs are kept sorted by
// key at export so encoded spans are stable regardless of set order.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is the exported (finished) form of one span. The identity fields
// — Trace, ID, Parent, Name, Attrs, StartSeq, EndSeq — are deterministic
// for a fixed spec; the Wall* fields are edge-captured metadata that
// varies run to run and is omitted when never stamped.
type Span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attrs  []Attr `json:"attrs,omitempty"`
	// StartSeq/EndSeq are the span's logical interval in engine
	// interaction counts (both zero for spans outside engine scope).
	StartSeq uint64 `json:"start_seq,omitempty"`
	EndSeq   uint64 `json:"end_seq,omitempty"`
	// WallStartUS/WallDurUS are microseconds since the process trace
	// epoch, stamped only through wall.go at the harness/serve edges.
	WallStartUS uint64 `json:"wall_start_us,omitempty"`
	WallDurUS   uint64 `json:"wall_dur_us,omitempty"`
}

// Trace is one in-flight span tree. All methods are safe for concurrent
// use (a request's queue span and a worker's trial span may end from
// different goroutines); span IDs are assigned in Start order, so a
// deterministic pipeline yields deterministic IDs.
type Trace struct {
	id string

	mu       sync.Mutex
	seq      int    // guarded by mu
	finished []Span // guarded by mu
	// prefix of finished already written to a sink
	// guarded by mu
	streamed int
	open     int          // guarded by mu
	onDone   func(*Trace) // guarded by mu
}

// NewTrace starts a trace under the given ID (see DeriveTraceID for the
// canonical spec-derived form).
func NewTrace(id string) *Trace {
	return newHookedTrace(id, nil)
}

// newHookedTrace constructs a trace with its completion hook installed
// before the trace is published to any other goroutine — the only place
// onDone may be set without holding mu.
func newHookedTrace(id string, onDone func(*Trace)) *Trace {
	return &Trace{id: id, onDone: onDone}
}

// ID returns the trace identifier.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root starts the trace's root span. A trace may hold several roots
// (e.g. a retried request), though the serving pipeline uses one.
func (t *Trace) Root(name string) *ActiveSpan {
	return t.start(name, "")
}

func (t *Trace) start(name, parent string) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seq++
	// Fixed-width IDs keep lexicographic order equal to start order;
	// eight hex digits hold any trace a process could physically record.
	id := fmt.Sprintf("%08x", t.seq)
	t.open++
	t.mu.Unlock()
	return &ActiveSpan{
		trace: t,
		span:  Span{Trace: t.id, ID: id, Parent: parent, Name: name},
	}
}

// finish records a completed span; whenever the open-span count reaches
// zero, the completion hook (Collector delivery) fires. Note that zero
// can be reached more than once — e.g. a request root ends while the
// job is still queued, and the worker's spans reopen the trace later —
// so the hook must tolerate repeated firing (see takeUndelivered).
func (t *Trace) finish(s Span) {
	t.mu.Lock()
	t.finished = append(t.finished, s)
	t.open--
	done := t.open == 0
	hook := t.onDone
	t.mu.Unlock()
	if done && hook != nil {
		hook(t)
	}
}

// Spans returns the finished spans sorted by span ID (= start order).
// Open spans are not included; callers exporting a trace end the root
// first.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.finished...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// takeUndelivered returns the finished spans a sink has not streamed
// yet, sorted by span ID among themselves, and marks them streamed.
// This is the delivery latch: the completion hook can fire every time
// the trace's open count transiently reaches zero, and the latch keeps
// each span from being written to the sink more than once.
func (t *Trace) takeUndelivered() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.finished[t.streamed:]...)
	t.streamed = len(t.finished)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveSpan is a started, not-yet-finished span. Not safe for
// concurrent mutation; hand distinct children to distinct goroutines.
// A nil *ActiveSpan is a valid no-op, so instrumented code never
// branches on whether tracing is on.
type ActiveSpan struct {
	trace *Trace
	span  Span
	done  bool
}

// Child starts a sub-span of s. Child of a nil span is nil, so an
// untraced call chain stays untraced without checks.
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return s.trace.start(name, s.span.ID)
}

// Trace returns the owning trace (nil for a nil span).
func (s *ActiveSpan) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// ID returns the span's ID ("" for nil).
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.span.ID
}

// SetAttr annotates the span. Setting an existing key overwrites it.
func (s *ActiveSpan) SetAttr(key, value string) *ActiveSpan {
	if s == nil {
		return nil
	}
	for i := range s.span.Attrs {
		if s.span.Attrs[i].Key == key {
			s.span.Attrs[i].Value = value
			return s
		}
	}
	s.span.Attrs = append(s.span.Attrs, Attr{Key: key, Value: value})
	return s
}

// SetSeq records the span's logical interval in engine interaction
// counts — the deterministic clock engine-scope spans are timed on.
func (s *ActiveSpan) SetSeq(start, end uint64) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.span.StartSeq, s.span.EndSeq = start, end
	return s
}

// SetWall records a wall-clock interval captured by the caller at a
// sanctioned timing edge (see wall.go's Stopwatch). The span package
// itself never reads the clock here.
func (s *ActiveSpan) SetWall(startUS, durUS uint64) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.span.WallStartUS, s.span.WallDurUS = startUS, durUS
	return s
}

// End finishes the span, sorting its attrs and delivering it to the
// trace. End is idempotent; ending a nil span is a no-op.
func (s *ActiveSpan) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	sort.Slice(s.span.Attrs, func(i, j int) bool { return s.span.Attrs[i].Key < s.span.Attrs[j].Key })
	s.trace.finish(s.span)
}

// --- spec-derived trace IDs -------------------------------------------------

// DeriveTraceID returns the canonical trace ID for the occurrence-th
// request (1-based) of the spec identified by specKey in this process:
// the content hash, suffixed with the occurrence past the first. Both
// inputs are deterministic, so the Nth request for a spec gets the same
// trace ID in every run.
func DeriveTraceID(specKey string, occurrence int) string {
	if occurrence <= 1 {
		return specKey
	}
	return fmt.Sprintf("%s.%d", specKey, occurrence)
}

// Sequencer hands out per-spec occurrence numbers for DeriveTraceID: a
// monotonic per-process sequence per spec key, so concurrent requests
// for one spec get distinct (but run-to-run stable) trace IDs.
type Sequencer struct {
	mu   sync.Mutex
	seen map[string]int // guarded by mu
}

// Next returns the next occurrence number for specKey (1 on first use).
func (q *Sequencer) Next(specKey string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.seen == nil {
		q.seen = make(map[string]int)
	}
	q.seen[specKey]++
	return q.seen[specKey]
}

// --- context propagation ----------------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying s as the current span.
func NewContext(ctx context.Context, s *ActiveSpan) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil (a valid no-op span)
// when ctx carries none.
func FromContext(ctx context.Context) *ActiveSpan {
	s, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return s
}

// --- X-Kpart-Trace header ---------------------------------------------------

// Header is the HTTP header that carries a trace ID across the wire:
// requests may supply one to name their trace, responses echo the
// trace ID the server recorded the request under.
const Header = "X-Kpart-Trace"

// maxHeaderID bounds a client-supplied trace ID.
const maxHeaderID = 128

// ValidID reports whether id is usable as a wire trace ID: 1..128 bytes
// of [A-Za-z0-9._-]. The derived SpecKey form always qualifies.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > maxHeaderID {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
