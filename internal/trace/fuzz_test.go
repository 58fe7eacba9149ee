package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/sim"
)

// FuzzDecode hardens the JSONL trace decoder against corrupt input: it
// must never panic, and anything it does accept must either replay cleanly
// or be rejected by Replay — no silent corruption. Seeded with a valid
// trace plus characteristic mutations; `go test` runs the corpus, and
// `go test -fuzz=FuzzDecode ./internal/trace` explores further.
func FuzzDecode(f *testing.F) {
	// Seed: a genuine trace.
	p := core.MustNew(3)
	pop := population.New(p, 6)
	var buf bytes.Buffer
	w := &Writer{W: &buf}
	if _, err := sim.Run(pop, sched.NewRandom(3), sim.After{N: 50},
		sim.Options{Hooks: []sim.Hook{w}}); err != nil {
		f.Fatal(err)
	}
	if err := w.Err(); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add("")
	f.Add("{}\n")
	f.Add(`{"protocol":"x","n":3,"states":7}` + "\n")
	f.Add(strings.Replace(valid, `"t":1`, `"t":-1`, 1))
	f.Add(strings.Replace(valid, `"i":`, `"i":999`, 1))
	f.Add(valid + "{garbage\n")

	f.Fuzz(func(t *testing.T, data string) {
		hdr, events, err := Decode(strings.NewReader(data))
		if err != nil {
			return // rejected; fine
		}
		if hdr.States != p.NumStates() {
			return // not replayable against our protocol; fine
		}
		// Accepted and shaped like our protocol: Replay must either
		// succeed or return ErrDiverged — never panic.
		_, _ = Replay(p, hdr, events)
	})
}
