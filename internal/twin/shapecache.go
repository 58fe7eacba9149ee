package twin

import (
	"sync"

	"repro/internal/core"
)

// The mean-field rung's endgame shapes, shared across answers. An
// endgame chain whose floor cStop is at least 2 has the same shape at
// every n with the same (k, n mod k, ⌊n/k⌋ − cStop) (see chainShape), so
// fresh questions whose keys repeat skip the state exploration, the
// minimum-degree orders and the symbolic factorizations, and pay only
// for their own probabilities and numeric factors. Answers do not depend
// on whether the shape came from the cache.

// shapeKey identifies an endgame shape: k, n mod k, and the depth
// ⌊n/k⌋ − cStop, the number of levels from the endgame's floor to its
// top.
type shapeKey struct{ k, r, depth int }

// The cache holds at most shapeCacheEntries shapes of shapeCacheBytes
// together, evicting the oldest first. A shape is at most endgameBudget
// nodes with levels of at most denseLevelCap; serve-mix's question grid
// (n in [200, 5000), k in {4, 5, 6, 8}) needs 19 of them, 4.0 MB
// together and 0.6 MB the largest.
const (
	shapeCacheEntries = 64
	shapeCacheBytes   = 32 << 20
)

// shapeCache is a bounded map of endgame shapes, safe for concurrent
// use. A missing shape is built outside the lock, so two answers that
// miss the same key at once both build it and the first to finish
// stores it.
type shapeCache struct {
	maxEntries, maxBytes int

	mu sync.Mutex
	m  map[shapeKey]*chainShape // guarded by mu
	// order lists the keys of m oldest first; bytes sums their shapes'
	// sizes.
	// guarded by mu
	order []shapeKey
	bytes int // guarded by mu
}

var shapes = newShapeCache(shapeCacheEntries, shapeCacheBytes)

// newShapeCache returns an empty cache with the given bounds.
func newShapeCache(maxEntries, maxBytes int) *shapeCache {
	return &shapeCache{maxEntries: maxEntries, maxBytes: maxBytes, m: make(map[shapeKey]*chainShape)}
}

// endgameShape returns the shape of buildEndgame(p, n, cMin)'s chain,
// from the cache when cMin ≥ 2.
func endgameShape(p *core.Protocol, n, cMin int) (*chainShape, error) {
	if cMin < 2 {
		return buildEndgameShape(p, n, cMin)
	}
	k := p.K()
	key := shapeKey{k: k, r: n % k, depth: n/k - cMin}
	if sh := shapes.get(key); sh != nil {
		return sh, nil
	}
	sh, err := buildEndgameShape(p, n, cMin)
	if err != nil {
		return nil, err
	}
	return shapes.put(key, sh), nil
}

// get returns the shape stored under key, or nil.
func (c *shapeCache) get(key shapeKey) *chainShape {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// put stores sh under key unless a shape is already there, evicting the
// oldest shapes until both bounds hold, and returns the stored shape. A
// shape larger than the byte bound on its own is returned unstored.
func (c *shapeCache) put(key shapeKey, sh *chainShape) *chainShape {
	size := sh.bytes()
	if size > c.maxBytes {
		return sh
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[key]; ok {
		return old
	}
	for len(c.order) >= c.maxEntries || c.bytes+size > c.maxBytes {
		c.bytes -= c.m[c.order[0]].bytes()
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[key] = sh
	c.order = append(c.order, key)
	c.bytes += size
	return sh
}

// reset empties the cache; BenchmarkColdPredict calls it before every
// answer so each one builds its shape.
func (c *shapeCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.order, c.bytes = nil, 0
}

// bytes approximates the memory the shape holds.
func (sh *chainShape) bytes() int {
	b := 4*(len(sh.vecs)+len(sh.slots)+len(sh.off)+len(sh.lvl)+len(sh.move)) +
		8*(len(sh.edges)+len(sh.lvl)) + len(sh.stable) // levels lists every node once
	for _, pt := range sh.pat {
		if pt != nil {
			b += 8*len(pt.ids) + 4*(len(pt.perm)+len(pt.aOff)+len(pt.aCol)+len(pt.aEdge)+
				len(pt.uOff)+len(pt.uCol)+len(pt.lOff)+len(pt.lCol))
		}
	}
	return b
}
