package rng

import (
	"math"
	"testing"
)

// Reference vectors for splitmix64 with seed 1234567, from the public
// domain reference implementation by Sebastiano Vigna.
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	s := NewSplitMix64(1234567)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("splitmix64 output %d: got %d, want %d", i, got, w)
		}
	}
}

func TestSplitMix64ZeroSeedDistinctFromOne(t *testing.T) {
	a, b := NewSplitMix64(0), NewSplitMix64(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			t.Fatalf("streams for seeds 0 and 1 collided at step %d", i)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Mix64 must be injective; spot-check a window plus random probes.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestXoshiroKnownStream(t *testing.T) {
	// Not an external vector (seeding goes through splitmix64); this pins
	// OUR stream so accidental changes to the generator break loudly.
	x := NewXoshiro256(42)
	first := x.Uint64()
	x2 := NewXoshiro256(42)
	for i := 0; i < 1000; i++ {
		_ = x2.Uint64()
	}
	x3 := NewXoshiro256(42)
	if got := x3.Uint64(); got != first {
		t.Fatalf("same seed produced different first output: %d vs %d", got, first)
	}
	y := NewXoshiro256(43)
	if y.Uint64() == first {
		t.Fatalf("adjacent seeds produced identical first output")
	}
}

func TestXoshiroNeverAllZeroState(t *testing.T) {
	x := NewXoshiro256(0)
	for i := 0; i < 1000; i++ {
		if x.Uint64() != 0 {
			return
		}
	}
	t.Fatal("xoshiro seeded with 0 emitted 1000 zeros; state is degenerate")
}

// wrappedXoshiro hides a *Xoshiro256 behind another type, so a Rand over
// it draws through the Source interface.
type wrappedXoshiro struct{ x *Xoshiro256 }

func (w wrappedXoshiro) Uint64() uint64 { return w.x.Uint64() }

// Rand draws from a *Xoshiro256 directly and from any other Source
// through the interface; both paths must be one stream. New(seed),
// FromSource(NewXoshiro256(seed)) and a Rand over a wrapper of the same
// generator emit identical draws of every kind.
func TestDirectDrawMatchesInterfaceDraw(t *testing.T) {
	draws := func(r *Rand) []uint64 {
		var out []uint64
		for i := 0; i < 2000; i++ {
			a, b := r.Pair(97)
			out = append(out, r.Uint64(), r.Uint64n(uint64(i)+1), uint64(a), uint64(b),
				math.Float64bits(r.Float64()), uint64(r.Binomial(int64(i)*37, 0.3)))
		}
		return out
	}
	for _, seed := range []uint64{0, 1, 0xf16} {
		want := draws(New(seed))
		for _, c := range []struct {
			name string
			r    *Rand
		}{
			{"FromSource(NewXoshiro256)", FromSource(NewXoshiro256(seed))},
			{"FromSource(wrapped)", FromSource(wrappedXoshiro{NewXoshiro256(seed)})},
		} {
			got := draws(c.r)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: draw %d = %#x, New gives %#x", seed, c.name, i, got[i], want[i])
				}
			}
		}
	}
}

// countingSource counts the draws taken from a *Xoshiro256.
type countingSource struct {
	x     *Xoshiro256
	draws int
}

func (c *countingSource) Uint64() uint64 { c.draws++; return c.x.Uint64() }

// Lemire over a raw xoshiro draw, the agent engine's inlined draw, is
// Rand.Uint64n's stream, redraws included. For n = 3·2^62 a quarter of
// the first draws land in the rejected region, so the redraw path runs.
func TestLemireMatchesUint64n(t *testing.T) {
	const draws = 4000
	for _, n := range []uint64{1, 2, 959, 3 << 62} {
		x := NewXoshiro256(0xf16)
		src := &countingSource{x: NewXoshiro256(0xf16)}
		r := FromSource(src)
		for i := 0; i < draws; i++ {
			got, want := Lemire(x, x.Uint64(), n), r.Uint64n(n)
			if got != want || got >= n {
				t.Fatalf("n=%d draw %d: Lemire gives %d, Uint64n %d", n, i, got, want)
			}
		}
		if *x != *src.x {
			t.Fatalf("n=%d: the generators ended in different states", n)
		}
		if n == 3<<62 && src.draws < draws*5/4 {
			t.Fatalf("n=%d: %d raw draws for %d values, want about %d", n, src.draws, draws, draws*4/3)
		}
	}
}

func TestIntnInRangeAndPanics(t *testing.T) {
	r := New(7)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestUint64nUniformityChiSquared(t *testing.T) {
	// 10 buckets, 100k draws: chi-squared with 9 dof; 99.9% critical value
	// is 27.88. A correct generator fails this with probability ~0.001 but
	// the seed is fixed, so the test is deterministic.
	r := New(99)
	const buckets = 10
	const draws = 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Uint64n(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range count {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi-squared = %.2f exceeds 27.88; counts %v", chi2, count)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestPairDistinctAndUniform(t *testing.T) {
	r := New(11)
	const n = 5
	counts := make(map[[2]int]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		a, b := r.Pair(n)
		if a == b {
			t.Fatalf("Pair returned equal indices %d", a)
		}
		if a < 0 || a >= n || b < 0 || b >= n {
			t.Fatalf("Pair out of range: %d %d", a, b)
		}
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	pairs := n * (n - 1) / 2
	expected := float64(draws) / float64(pairs)
	for p, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("pair %v count %d far from expected %.0f", p, c, expected)
		}
	}
	if len(counts) != pairs {
		t.Fatalf("observed %d distinct pairs, want %d", len(counts), pairs)
	}
}

func TestPairPanicsBelowTwo(t *testing.T) {
	r := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Pair(1) did not panic")
		}
	}()
	r.Pair(1)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	p := make([]int, 20)
	for trial := 0; trial < 50; trial++ {
		r.Perm(p)
		seen := make([]bool, len(p))
		for _, v := range p {
			if v < 0 || v >= len(p) || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(8)
	s := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(s)
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: %v", s)
	}
}

func TestStreamSeedPathSensitivity(t *testing.T) {
	a := StreamSeed(1, 2, 3)
	b := StreamSeed(1, 3, 2)
	c := StreamSeed(1, 2, 3)
	d := StreamSeed(2, 2, 3)
	if a != c {
		t.Fatal("StreamSeed not deterministic")
	}
	if a == b {
		t.Fatal("StreamSeed ignores path order")
	}
	if a == d {
		t.Fatal("StreamSeed ignores root")
	}
}

func TestStreamSeedNoEasyCollisions(t *testing.T) {
	seen := make(map[uint64]bool)
	for p := uint64(0); p < 100; p++ {
		for tr := uint64(0); tr < 100; tr++ {
			s := StreamSeed(42, p, tr)
			if seen[s] {
				t.Fatalf("collision at point=%d trial=%d", p, tr)
			}
			seen[s] = true
		}
	}
}

func BenchmarkXoshiro256(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= x.Uint64()
	}
	_ = sink
}

func BenchmarkPairSampling(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		a, c := r.Pair(960)
		sink ^= a + c
	}
	_ = sink
}
