// Package explore exhaustively verifies population protocols on small
// populations by building the full configuration graph.
//
// Because agents are anonymous and encounters are unordered, a
// configuration is fully described by its state-count multiset; the graph
// over those multisets has C(n+|Q|−1, |Q|−1) nodes at most, which is small
// enough to enumerate for the (n, k) grid the tests use.
//
// The checker mechanizes the paper's correctness statement (Theorem 1) in
// the standard finite form:
//
//  1. A configuration is "frozen" when every enabled transition preserves
//     both participants' groups f. A configuration is "stable" (Section
//     2.2) when its entire forward closure is frozen: the partition fixed
//     now is never disturbed again. (A stable configuration of the
//     k-partition protocol may still flip the leftover agent between
//     initial and initial' — frozen ≠ dead.)
//  2. Under global fairness an execution over a finite graph must visit
//     some configuration infinitely often, and then every configuration
//     reachable from it. Hence the protocol stabilizes under global
//     fairness if and only if from EVERY reachable configuration a stable
//     configuration is reachable. That reachability condition is what
//     Check verifies, together with uniformity of the partition at every
//     stable configuration.
package explore

import (
	"fmt"
	"sort"

	"repro/internal/protocol"
)

// Config is a configuration in multiset form: Counts[s] agents in state s.
type Config struct {
	Counts []int
}

func (c Config) key() string {
	b := make([]byte, 0, len(c.Counts)*2)
	for _, v := range c.Counts {
		b = append(b, byte(v), byte(v>>8))
	}
	return string(b)
}

// N returns the population size of the configuration.
func (c Config) N() int {
	n := 0
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// GroupSizes returns the group-size vector of the configuration under p's
// output mapping.
func (c Config) GroupSizes(p protocol.Protocol) []int {
	sizes := make([]int, p.NumGroups())
	for s, v := range c.Counts {
		if v != 0 {
			sizes[p.Group(protocol.State(s))-1] += v
		}
	}
	return sizes
}

// Graph is the reachable configuration graph of a protocol for a fixed n.
type Graph struct {
	Proto protocol.Protocol
	// Nodes, indexed by dense id in BFS order from the initial
	// configuration (node 0).
	Nodes []Config
	// Succ[i] lists the ids of configurations reachable from node i by
	// one productive transition (deduplicated, sorted).
	Succ [][]int
	// Frozen[i] reports that every transition enabled at node i keeps
	// both participants in their current group.
	Frozen []bool

	index map[string]int
}

// MaxNodes caps graph construction; Build returns an error beyond it so a
// mistaken huge (n, k) fails fast instead of consuming all memory.
const MaxNodes = 5_000_000

// Build explores the configuration graph of p with n agents, starting from
// the all-initial configuration.
func Build(p protocol.Protocol, n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("explore: need n >= 2, got %d", n)
	}
	S := p.NumStates()
	start := Config{Counts: make([]int, S)}
	start.Counts[p.InitialState()] = n

	g := &Graph{Proto: p, index: make(map[string]int)}
	g.add(start)
	for i := 0; i < len(g.Nodes); i++ {
		if len(g.Nodes) > MaxNodes {
			return nil, fmt.Errorf("explore: exceeded %d configurations", MaxNodes)
		}
		cur := g.Nodes[i]
		frozen := true
		var succ []int
		seen := map[int]bool{}
		for a := 0; a < S; a++ {
			if cur.Counts[a] == 0 {
				continue
			}
			for b := 0; b < S; b++ {
				if cur.Counts[b] == 0 || (a == b && cur.Counts[a] < 2) {
					continue
				}
				out, _ := p.Delta(protocol.State(a), protocol.State(b))
				if int(out.P) == a && int(out.Q) == b {
					continue
				}
				if p.Group(protocol.State(a)) != p.Group(out.P) ||
					p.Group(protocol.State(b)) != p.Group(out.Q) {
					frozen = false
				}
				next := Config{Counts: append([]int(nil), cur.Counts...)}
				next.Counts[a]--
				next.Counts[b]--
				next.Counts[out.P]++
				next.Counts[out.Q]++
				id := g.add(next)
				if !seen[id] {
					seen[id] = true
					succ = append(succ, id)
				}
			}
		}
		sort.Ints(succ)
		g.Succ = append(g.Succ, succ)
		g.Frozen = append(g.Frozen, frozen)
	}
	return g, nil
}

func (g *Graph) add(c Config) int {
	k := c.key()
	if id, ok := g.index[k]; ok {
		return id
	}
	id := len(g.Nodes)
	g.index[k] = id
	g.Nodes = append(g.Nodes, c)
	return id
}

// Lookup returns the node id of a configuration, if reachable.
func (g *Graph) Lookup(c Config) (int, bool) {
	id, ok := g.index[c.key()]
	return id, ok
}

// StableNodes computes the set of stable configurations: nodes whose whole
// forward closure is frozen. Returned as a boolean mask over node ids.
// A node is unstable iff it can reach a non-frozen node, so the mask is
// the complement of CanReach over the non-frozen nodes.
func (g *Graph) StableNodes() []bool {
	return complement(g.CanReach(complement(g.Frozen)))
}

// CanReach computes, for every node, whether it can reach some node in the
// target mask (backward reachability over reversed edges).
func (g *Graph) CanReach(target []bool) []bool {
	return reachMask(g.Succ, target)
}

// Report summarizes a Check run.
type Report struct {
	N           int
	Reachable   int // number of reachable configurations
	Stable      int // number of stable configurations
	Uniform     bool
	LiveFromAll bool
	// FirstNonLive is a sample configuration that cannot reach a stable
	// one (nil when LiveFromAll).
	FirstNonLive *Config
	// FirstNonUniform is a sample stable configuration with spread > 1
	// (nil when Uniform).
	FirstNonUniform *Config
}

// Check verifies the Theorem 1 conditions for p with n agents:
//
//  1. liveness-under-global-fairness: from every reachable configuration a
//     stable configuration is reachable, and at least one stable
//     configuration exists;
//  2. safety: every stable configuration's partition is uniform
//     (max group size − min group size <= 1).
//
// maxSpread generalizes condition 2 for approximate protocols (pass 1 for
// exact uniform partition).
func Check(p protocol.Protocol, n int, maxSpread int) (Report, error) {
	g, err := Build(p, n)
	if err != nil {
		return Report{}, err
	}
	stable := g.StableNodes()
	rep := Report{N: n, Reachable: len(g.Nodes), Uniform: true, LiveFromAll: true}
	for i, s := range stable {
		if !s {
			continue
		}
		rep.Stable++
		sizes := g.Nodes[i].GroupSizes(p)
		min, max := sizes[0], sizes[0]
		for _, v := range sizes[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max-min > maxSpread && rep.Uniform {
			rep.Uniform = false
			c := g.Nodes[i]
			rep.FirstNonUniform = &c
		}
	}
	live := g.CanReach(stable)
	for i, ok := range live {
		if !ok {
			rep.LiveFromAll = false
			c := g.Nodes[i]
			rep.FirstNonLive = &c
			break
		}
	}
	if rep.Stable == 0 {
		rep.LiveFromAll = false
	}
	return rep, nil
}

// String renders the configuration with the protocol's state names.
func (c Config) String() string {
	return fmt.Sprintf("%v", c.Counts)
}

// Format renders the configuration with readable state names.
func (c Config) Format(p protocol.Protocol) string {
	out := "{"
	first := true
	for s, v := range c.Counts {
		if v == 0 {
			continue
		}
		if !first {
			out += " "
		}
		first = false
		out += fmt.Sprintf("%s:%d", p.StateName(protocol.State(s)), v)
	}
	return out + "}"
}
