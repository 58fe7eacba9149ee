// Package trace records executions as sequences of interaction events,
// serializes them as JSON Lines, and replays them against a fresh
// population. Replay validation is the debugging backstop: any divergence
// between a recorded run and its replay indicates nondeterminism leaking
// into the engine (e.g. map iteration order reaching a scheduler).
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Event is one recorded interaction.
type Event struct {
	// Step is 1-based interaction index.
	Step uint64 `json:"t"`
	// I, J are the interacting agents (initiator, responder).
	I int `json:"i"`
	J int `json:"j"`
	// BeforeP/Q and AfterP/Q are the states around the interaction.
	BeforeP protocol.State `json:"bp"`
	BeforeQ protocol.State `json:"bq"`
	AfterP  protocol.State `json:"ap"`
	AfterQ  protocol.State `json:"aq"`
}

// Header opens a trace stream and pins the run's parameters.
type Header struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	States   int    `json:"states"`
}

// Decode reads a JSONL trace.
func Decode(rd io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var hdr Header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, err
		}
		return hdr, nil, errors.New("trace: empty stream")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("trace: bad header: %w", err)
	}
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return hdr, events, fmt.Errorf("trace: bad event %d: %w", len(events)+1, err)
		}
		events = append(events, e)
	}
	return hdr, events, sc.Err()
}

// ErrDiverged is returned by Replay when the trace does not match the
// protocol's dynamics.
var ErrDiverged = errors.New("trace: replay diverged")

// MaxN is the largest population a trace header may declare. Replay
// builds an n-agent population, and `kpart trace` then sizes a
// fairness.Meter from the same n: three n(n−1)/2-entry uint64 tables,
// 12·n(n−1) bytes, ≈ 50 MB at MaxN. Nothing else bounds the header's n.
const MaxN = 2048

// Replay re-executes a trace against proto from the all-initial
// configuration, verifying every event's before/after states. It returns
// the final population. A header n outside [2, MaxN] is refused with
// ErrDiverged before anything is allocated.
func Replay(proto protocol.Protocol, hdr Header, events []Event) (*population.Population, error) {
	if hdr.States != proto.NumStates() {
		return nil, fmt.Errorf("%w: trace has %d states, protocol %d", ErrDiverged, hdr.States, proto.NumStates())
	}
	if hdr.N < 2 {
		return nil, fmt.Errorf("%w: trace has n = %d, a population needs 2 agents", ErrDiverged, hdr.N)
	}
	if hdr.N > MaxN {
		return nil, fmt.Errorf("%w: trace has n = %d, above the replay bound trace.MaxN = %d", ErrDiverged, hdr.N, MaxN)
	}
	pop := population.New(proto, hdr.N)
	for idx, e := range events {
		if e.I < 0 || e.I >= hdr.N || e.J < 0 || e.J >= hdr.N || e.I == e.J {
			return nil, fmt.Errorf("%w: event %d has invalid pair (%d,%d)", ErrDiverged, idx, e.I, e.J)
		}
		if pop.State(e.I) != e.BeforeP || pop.State(e.J) != e.BeforeQ {
			return nil, fmt.Errorf("%w: event %d expected states (%d,%d), population has (%d,%d)",
				ErrDiverged, idx, e.BeforeP, e.BeforeQ, pop.State(e.I), pop.State(e.J))
		}
		pop.Interact(e.I, e.J)
		if pop.State(e.I) != e.AfterP || pop.State(e.J) != e.AfterQ {
			return nil, fmt.Errorf("%w: event %d produced (%d,%d), trace says (%d,%d)",
				ErrDiverged, idx, pop.State(e.I), pop.State(e.J), e.AfterP, e.AfterQ)
		}
	}
	return pop, nil
}

// Writer streams events to an io.Writer as they happen; it implements
// sim.Hook. Errors are latched and reported by Err (hooks cannot fail the
// engine).
type Writer struct {
	W   io.Writer
	enc *json.Encoder
	err error
}

// Init implements sim.Hook; it writes the header line.
func (w *Writer) Init(pop *population.Population) {
	w.enc = json.NewEncoder(w.W)
	w.err = w.enc.Encode(Header{
		Protocol: pop.Protocol().Name(),
		N:        pop.N(),
		States:   pop.Protocol().NumStates(),
	})
}

// OnStep implements sim.Hook.
func (w *Writer) OnStep(pop *population.Population, s sim.StepInfo) {
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(Event{
		Step:    pop.Interactions(),
		I:       s.I,
		J:       s.J,
		BeforeP: s.Before.P,
		BeforeQ: s.Before.Q,
		AfterP:  s.After.P,
		AfterQ:  s.After.Q,
	})
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }
