package rng

import (
	"testing"
	"testing/quick"
)

// Round trip: marshal mid-stream, restore into a fresh generator, and the
// two streams must coincide forever after (checked for a prefix).
func TestStateRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		make func() Stateful
	}{
		{"splitmix64", func() Stateful { return NewSplitMix64(123) }},
		{"xoshiro256", func() Stateful { return NewXoshiro256(123) }},
		{"pcg32", func() Stateful { return NewPCG32(123, 45) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.make()
			for i := 0; i < 777; i++ {
				g.Uint64()
			}
			state := g.MarshalState()
			h := c.make()
			if err := h.UnmarshalState(state); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				if a, b := g.Uint64(), h.Uint64(); a != b {
					t.Fatalf("streams diverged at %d: %d vs %d", i, a, b)
				}
			}
		})
	}
}

// Cross-type state must be rejected, as must truncated and degenerate
// states.
func TestUnmarshalRejectsMismatches(t *testing.T) {
	x := NewXoshiro256(1)
	p := NewPCG32(1, 2)
	s := NewSplitMix64(1)
	if err := x.UnmarshalState(p.MarshalState()); err == nil {
		t.Fatal("xoshiro accepted pcg state")
	}
	if err := p.UnmarshalState(s.MarshalState()); err == nil {
		t.Fatal("pcg accepted splitmix state")
	}
	if err := s.UnmarshalState(nil); err == nil {
		t.Fatal("splitmix accepted nil")
	}
	if err := x.UnmarshalState(x.MarshalState()[:5]); err == nil {
		t.Fatal("xoshiro accepted truncated state")
	}
	// All-zero xoshiro state is a degenerate fixed point.
	zero := make([]byte, 33)
	zero[0] = 2 // tagXoshiro256
	if err := x.UnmarshalState(zero); err == nil {
		t.Fatal("xoshiro accepted all-zero state")
	}
	// Even PCG increment breaks the LCG's full period.
	even := make([]byte, 17)
	even[0] = 3 // tagPCG32
	if err := p.UnmarshalState(even); err == nil {
		t.Fatal("pcg accepted even increment")
	}
}

func TestRandStatePlumbing(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	state := r.MarshalState()
	if state == nil {
		t.Fatal("Rand over xoshiro returned nil state")
	}
	r2 := New(0)
	if err := r2.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	if r.Uint64() != r2.Uint64() {
		t.Fatal("restored Rand diverges")
	}
}

type opaqueSource struct{}

func (opaqueSource) Uint64() uint64 { return 4 }

func TestRandStateWithOpaqueSource(t *testing.T) {
	r := FromSource(opaqueSource{})
	if r.MarshalState() != nil {
		t.Fatal("opaque source produced state")
	}
	if err := r.UnmarshalState([]byte{1}); err == nil {
		t.Fatal("opaque source accepted state")
	}
}

// Property: marshal → unmarshal → marshal is the identity on state bytes,
// for arbitrary stream positions.
func TestMarshalIdempotent(t *testing.T) {
	f := func(seed uint64, skip uint8) bool {
		g := NewXoshiro256(seed)
		for i := 0; i < int(skip); i++ {
			g.Uint64()
		}
		s1 := g.MarshalState()
		h := NewXoshiro256(0)
		if err := h.UnmarshalState(s1); err != nil {
			return false
		}
		s2 := h.MarshalState()
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A restore in the middle of a stream resumes it exactly on the direct
// Xoshiro256 path, both in the Rand that exported the state (rewinding
// it) and in a fresh one.
func TestDirectDrawStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 333; i++ {
		r.Uint64n(1000)
	}
	state := r.MarshalState()
	want := make([]uint64, 1000)
	for i := range want {
		want[i] = r.Uint64()
	}
	for _, dst := range []*Rand{r, New(7)} {
		if err := dst.UnmarshalState(state); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := dst.Uint64(); got != w {
				t.Fatalf("draw %d after restore: got %#x, want %#x", i, got, w)
			}
		}
	}
}
