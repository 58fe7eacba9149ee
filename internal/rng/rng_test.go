package rng

import (
	"math"
	"math/bits"
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

// The first outputs of xoshiro256** 1.0 from the state {1, 2, 3, 4}, the
// reference implementation's (they are the test vector of, among others,
// Rust's rand_xoshiro). Next and Uint64 must both give them.
func TestXoshiroReferenceVector(t *testing.T) {
	want := []uint64{11520, 0, 1509978240, 1215971899390074240, 1216172134540287360, 607988272756665600}
	x := Xoshiro256{1, 2, 3, 4}
	p := &Xoshiro256{1, 2, 3, 4}
	for i, w := range want {
		var v uint64
		v, x = x.Next()
		if u := p.Uint64(); v != w || u != w {
			t.Fatalf("output %d: Next gives %d, Uint64 %d, want %d", i, v, u, w)
		}
	}
	if x != *p {
		t.Fatalf("Next left %+v, Uint64 %+v", x, *p)
	}
}

// A draw of 0 lies in Lemire's rejected region for every bound. From the
// reference state, whose second output is 0, and from its successor,
// whose first is, Rand.Pair at n = 960, the general agent loop's draw,
// redraws the rejected responder or initiator as plain rejection sampling
// does and leaves the generator where it does.
func TestPairRedrawsZeroDraw(t *testing.T) {
	// bounded draws until lo(v·n) reaches 2⁶⁴ mod n, Lemire's acceptance
	// region, with no fast path.
	bounded := func(x *Xoshiro256, n uint64) int {
		for {
			hi, lo := bits.Mul64(x.Uint64(), n)
			if lo >= -n%n {
				return int(hi)
			}
		}
	}
	_, succ := Xoshiro256{1, 2, 3, 4}.Next()
	for _, start := range []Xoshiro256{{1, 2, 3, 4}, succ} {
		r, want := &Rand{x: start}, start
		for k := 0; k < 3; k++ {
			i, j := r.Pair(960)
			wi, wj := bounded(&want, 960), bounded(&want, 959)
			if wj >= wi {
				wj++
			}
			if i != wi || j != wj {
				t.Fatalf("from %+v, pair %d: Pair gives (%d, %d), rejection sampling (%d, %d)", start, k, i, j, wi, wj)
			}
		}
		if r.x != want {
			t.Fatalf("from %+v: Pair left %+v, rejection sampling %+v", start, r.x, want)
		}
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

// lemire over a raw xoshiro draw is Rand.Uint64n's stream, redraws
// included: both leave the generator where plain rejection sampling
// does. For n = 3·2^62 a quarter of the first draws land in the
// rejected region, so the redraw path runs.
func TestLemireMatchesUint64n(t *testing.T) {
	const draws = 4000
	for _, n := range []uint64{1, 2, 959, 3 << 62} {
		x, r, ref := NewXoshiro256(0xf16), New(0xf16), NewXoshiro256(0xf16)
		raw := 0
		for i := 0; i < draws; i++ {
			got, want := lemire(x, x.Uint64(), n), r.Uint64n(n)
			if got != want || got >= n {
				t.Fatalf("n=%d draw %d: lemire gives %d, Uint64n %d", n, i, got, want)
			}
			for {
				raw++
				if _, lo := bits.Mul64(ref.Uint64(), n); lo >= -n%n {
					break
				}
			}
		}
		if *x != r.x || *x != *ref {
			t.Fatalf("n=%d: lemire left %+v, Uint64n %+v, rejection sampling %+v", n, *x, r.x, *ref)
		}
		if n == 3<<62 && raw < draws*5/4 {
			t.Fatalf("n=%d: %d raw draws for %d values, want about %d", n, raw, draws, draws*4/3)
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

// benchSink keeps the benchmarks' draws live.
var benchSink uint64

// BenchmarkXoshiro256 draws through the pointer, loading and storing the
// state on every draw; BenchmarkXoshiro256Next holds the generator in a
// local and draws through Next, as the agent engine's loop does.
func BenchmarkXoshiro256(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= x.Uint64()
	}
	benchSink = sink
}

func BenchmarkXoshiro256Next(b *testing.B) {
	x := *NewXoshiro256(1)
	var sink, v uint64
	for i := 0; i < b.N; i++ {
		v, x = x.Next()
		sink ^= v
	}
	benchSink = sink
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
