package span

// Export and analysis: the JSONL exchange format (one span per line),
// the Collector that gathers finished traces and streams them to a
// sink, and the tree/critical-path/rollup computations shared by
// `kpart spans` and the tests. Everything here is deterministic —
// spans are ordered by (trace, id), never by completion time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Collector owns the traces a process records. Traces registered
// through NewTrace deliver themselves when their last open span ends;
// with a sink attached, a completed trace's not-yet-streamed spans are
// encoded and flushed as one JSONL block at that moment (so a
// long-lived server exports incrementally, and a trace that reopens —
// late spans after a transient zero — delivers only its new spans),
// and every trace also stays available to Export.
// A nil *Collector is a valid no-op: NewTrace returns nil, and the
// nil-span plumbing makes the entire pipeline untraced.
type Collector struct {
	mu     sync.Mutex
	sink   io.Writer // guarded by mu
	seq    Sequencer
	traces []*Trace // guarded by mu
	err    error    // guarded by mu
}

// NewCollector returns a collector delivering completed traces to sink
// (nil = in-memory only).
func NewCollector(sink io.Writer) *Collector {
	return &Collector{sink: sink}
}

// NewTrace starts a collected trace under the given ID. Nil collectors
// return a nil trace, which yields nil spans all the way down.
func (c *Collector) NewTrace(id string) *Trace {
	if c == nil {
		return nil
	}
	// The hook is installed at construction, before the trace is
	// published: setting t.onDone after handing t out would race with a
	// finish() reading it under t.mu.
	t := newHookedTrace(id, c.deliver)
	c.mu.Lock()
	c.traces = append(c.traces, t)
	c.mu.Unlock()
	return t
}

// TraceForSpec starts a collected trace whose ID derives from the
// spec's content hash plus this collector's per-process occurrence
// sequence (see DeriveTraceID).
func (c *Collector) TraceForSpec(specKey string) *Trace {
	return c.TraceForID(specKey)
}

// TraceForID starts a collected trace under a caller-supplied base ID
// (e.g. a client's X-Kpart-Trace header), run through the same
// occurrence sequence as spec-derived IDs: the second use of one ID in
// a process yields "id.2", so repeated or concurrent requests naming
// the same ID get distinct traces instead of colliding root span IDs
// inside one merged trace.
func (c *Collector) TraceForID(id string) *Trace {
	if c == nil {
		return nil
	}
	return c.NewTrace(DeriveTraceID(id, c.seq.Next(id)))
}

// deliver streams a completed trace's spans to the sink. The hook can
// fire more than once per trace (the open count may transiently reach
// zero mid-pipeline), so delivery takes only the spans not streamed
// yet — each span is written exactly once.
func (c *Collector) deliver(t *Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sink == nil || c.err != nil {
		return
	}
	spans := t.takeUndelivered()
	if len(spans) == 0 {
		return
	}
	if err := WriteJSONL(c.sink, spans); err != nil {
		c.err = err
	}
}

// Export returns every finished span across all collected traces,
// ordered by (trace, id).
func (c *Collector) Export() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	traces := append([]*Trace(nil), c.traces...)
	c.mu.Unlock()
	var out []Span
	for _, t := range traces {
		out = append(out, t.Spans()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Err reports the first sink write error, if any.
func (c *Collector) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// WriteJSONL writes spans one JSON object per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses spans written by WriteJSONL. Blank lines are
// skipped; a malformed line is an error naming its line number.
func ReadJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(trimSpace(b)) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(b, &s); err != nil {
			return out, fmt.Errorf("span: line %d: %w", line, err)
		}
		if s.Trace == "" || s.ID == "" {
			return out, fmt.Errorf("span: line %d: missing trace or id", line)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("span: reading JSONL: %w", err)
	}
	return out, nil
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// --- tree / analysis --------------------------------------------------------

// Node is one span with its children, ordered by span ID.
type Node struct {
	Span     Span
	Children []*Node
}

// Tree is the reconstructed span forest of one trace.
type Tree struct {
	Trace string
	Roots []*Node
}

// BuildTrees groups spans by trace and links parents to children.
// Spans whose parent is absent from the set are treated as roots (a
// truncated export still renders). Traces and siblings come out in
// deterministic (trace, id) order.
func BuildTrees(spans []Span) []Tree {
	byTrace := make(map[string][]Span)
	var order []string
	for _, s := range spans {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Strings(order)
	trees := make([]Tree, 0, len(order))
	for _, tid := range order {
		group := byTrace[tid]
		sort.Slice(group, func(i, j int) bool { return group[i].ID < group[j].ID })
		nodes := make(map[string]*Node, len(group))
		for _, s := range group {
			nodes[s.ID] = &Node{Span: s}
		}
		tree := Tree{Trace: tid}
		for _, s := range group {
			n := nodes[s.ID]
			if p, ok := nodes[s.Parent]; ok && s.Parent != "" && s.Parent != s.ID {
				p.Children = append(p.Children, n)
			} else {
				tree.Roots = append(tree.Roots, n)
			}
		}
		trees = append(trees, tree)
	}
	return trees
}

// Cost is a node's duration for critical-path purposes: the wall
// interval when stamped, else the logical (interaction) interval.
func Cost(s Span) uint64 {
	if s.WallDurUS > 0 {
		return s.WallDurUS
	}
	if s.EndSeq > s.StartSeq {
		return s.EndSeq - s.StartSeq
	}
	return 0
}

// CriticalPath returns the root-to-leaf chain that dominates the
// tree's cost: from each node, descend into the costliest child (ties
// break toward the lower span ID, keeping the path deterministic).
func CriticalPath(root *Node) []*Node {
	path := []*Node{root}
	n := root
	for len(n.Children) > 0 {
		best := n.Children[0]
		for _, c := range n.Children[1:] {
			if Cost(c.Span) > Cost(best.Span) {
				best = c
			}
		}
		path = append(path, best)
		n = best
	}
	return path
}

// NameStat aggregates all spans sharing a name.
type NameStat struct {
	Name      string
	Count     int
	WallDurUS uint64
	SeqDelta  uint64
}

// Rollup aggregates spans by name, sorted by descending wall duration
// (then name). This is the per-phase attribution view: every
// "phase/grouping" span of a trial folds into one row.
func Rollup(spans []Span) []NameStat {
	agg := make(map[string]*NameStat)
	for _, s := range spans {
		st, ok := agg[s.Name]
		if !ok {
			st = &NameStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.WallDurUS += s.WallDurUS
		if s.EndSeq > s.StartSeq {
			st.SeqDelta += s.EndSeq - s.StartSeq
		}
	}
	out := make([]NameStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallDurUS != out[j].WallDurUS {
			return out[i].WallDurUS > out[j].WallDurUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
