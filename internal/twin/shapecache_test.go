package twin

import (
	"reflect"
	"testing"

	"repro/internal/harness"
)

// cachedKey returns the shape key of (n, k)'s endgame, ok=false when
// the mean-field rung does not cache it.
func cachedKey(n, k int) (shapeKey, bool) {
	cStop, ok := chooseEndgame(n, k, n/k)
	return shapeKey{k: k, r: n % k, depth: n/k - cStop}, ok && cStop >= 2
}

// An endgame shape with a floor of at least 2 depends on n only through
// (k, n mod k, ⌊n/k⌋ − cStop): every two populations with the same key
// build the same relative vectors, edges, levels, stable set and level
// patterns. The populations step by 13, which is prime to every k here,
// so each k meets every residue at every depth the range has; -short
// (the race pass) steps by 331 and compares fewer pairs.
func TestEndgameStructureDependsOnResidue(t *testing.T) {
	step := 13
	if testing.Short() {
		step = 331
	}
	compared := 0
	for _, k := range []int{3, 4, 5, 6, 8} {
		p := harness.Proto(k)
		first := make(map[shapeKey]*chainShape)
		firstN := make(map[shapeKey]int)
		for n := 60; n < 5000; n += step {
			key, ok := cachedKey(n, k)
			if !ok {
				continue
			}
			sh, err := buildEndgameShape(p, n, n/k-key.depth)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			want, seen := first[key]
			if !seen {
				first[key], firstN[key] = sh, n
				continue
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"vectors", sh.vecs, want.vecs}, {"offsets", sh.off, want.off},
				{"edges", sh.edges, want.edges}, {"stable mask", sh.stable, want.stable},
				{"levels", sh.levels, want.levels},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("k=%d: n=%d and n=%d share the key %+v but not their %s", k, n, firstN[key], key, f.name)
				}
			}
			if !reflect.DeepEqual(sh, want) {
				t.Fatalf("k=%d: n=%d and n=%d share the key %+v but not their shapes", k, n, firstN[key], key)
			}
			compared++
		}
		if len(first) == 0 {
			t.Fatalf("k=%d: no endgame with a floor of at least 2", k)
		}
	}
	if compared == 0 {
		t.Fatal("no two populations shared a key")
	}
	t.Logf("%d shapes compared with an earlier one of their key", compared)
}

// An answer on a shape another population of its key built equals the
// answer on the population's own shape, field for field, with and
// without milestones.
func TestCachedShapeAnswersMatchFresh(t *testing.T) {
	defer shapes.reset()
	for _, s := range []Spec{
		{N: 1000, K: 4}, {N: 960, K: 4, Milestones: true}, {N: 2000, K: 3, Milestones: true},
		{N: 611, K: 6}, {N: 3750, K: 5, Milestones: true}, {N: 1000, K: 8}, {N: 100_000, K: 8},
	} {
		key, ok := cachedKey(s.N, s.K)
		if !ok {
			t.Fatalf("%+v: no cached shape", s)
		}
		// The donor is the population of the same key farthest below.
		donor := s.N - s.K
		for ; donor > 0; donor -= s.K {
			if dk, ok := cachedKey(donor, s.K); !ok || dk != key {
				break
			}
		}
		donor += s.K
		if donor == s.N {
			t.Fatalf("%+v: no smaller population shares the shape key %+v", s, key)
		}
		shapes.reset()
		want, err := NewMeanField().Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		shapes.reset()
		if _, err := NewMeanField().Predict(Spec{N: donor, K: s.K}); err != nil {
			t.Fatal(err)
		}
		donorShape := shapes.get(key)
		got, err := NewMeanField().Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		if donorShape == nil || shapes.get(key) != donorShape {
			t.Fatalf("%+v: the answer did not use the shape n=%d left in the cache", s, donor)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v on n=%d's shape = %+v, on its own %+v", s, donor, got, want)
		}
	}
}

// The cache never holds more shapes or bytes than its bounds, evicts the
// oldest first, and leaves a shape above the byte bound unstored.
func TestShapeCacheBound(t *testing.T) {
	var built []*chainShape
	for _, n := range []int{200, 201, 202, 203} {
		cStop, _ := chooseEndgame(n, 4, n/4)
		sh, err := buildEndgameShape(harness.Proto(4), n, cStop)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, sh)
	}
	maxBytes := built[0].bytes() + built[1].bytes() + built[2].bytes()
	c := newShapeCache(5, maxBytes)
	check := func(when string) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		sum := 0
		for _, key := range c.order {
			sum += c.m[key].bytes()
		}
		if len(c.m) > c.maxEntries || len(c.order) != len(c.m) || c.bytes != sum || c.bytes > c.maxBytes {
			t.Fatalf("%s: %d shapes (%d keys in order) of %d bytes (counted %d), bounds %d shapes and %d bytes",
				when, len(c.m), len(c.order), sum, c.bytes, c.maxEntries, c.maxBytes)
		}
	}
	for i := 0; i < 20; i++ {
		key := shapeKey{k: 4, r: i, depth: 8}
		if got := c.put(key, built[i%len(built)]); got != built[i%len(built)] {
			t.Fatalf("put %d returned another shape", i)
		}
		check("after put")
		if c.get(key) == nil {
			t.Fatalf("put %d: shape not stored", i)
		}
		if i > 0 && i%len(built) != 0 && c.get(shapeKey{k: 4, r: i - 1, depth: 8}) == nil {
			t.Fatalf("put %d evicted the newest earlier shape", i)
		}
	}
	if c.get(shapeKey{k: 4, r: 0, depth: 8}) != nil {
		t.Error("the oldest shape survived 20 puts into a 5-shape cache")
	}
	if c.put(shapeKey{k: 4, r: 19, depth: 8}, built[0]) != built[19%len(built)] {
		t.Error("a second put of a stored key replaced its shape")
	}
	small := newShapeCache(5, built[0].bytes()-1)
	if small.put(shapeKey{k: 4}, built[0]) != built[0] || small.get(shapeKey{k: 4}) != nil {
		t.Error("a shape above the byte bound was stored")
	}
	check("at the end")
}
