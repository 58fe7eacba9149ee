package explore

// Graph-restricted model checking. The multiset checker (explore.go)
// exploits anonymity: on the complete interaction graph, WHICH agents
// hold which states is irrelevant, so configurations collapse to
// state-count multisets. Under a restricted interaction graph that
// collapse is unsound — whether two free agents can ever meet depends
// on where they sit — so this file builds the configuration graph over
// full agent-state VECTORS, with one move per edge orientation, and
// re-runs the same stability/liveness analysis.
//
// The headline use is mechanizing the freeze findings exactly: on a
// star (and most sparse graphs), some reachable configuration cannot
// reach any stable-uniform configuration — global fairness over the
// restricted edge set quantifies only over reachable configurations,
// so it cannot save the protocol. CheckVector reports those trapped
// configurations; the harness's FrozenCondition outcomes are the
// runtime shadow of the same fact, and the tests tie the two together.

import (
	"fmt"

	"repro/internal/protocol"
)

// complement returns the mask with every entry negated.
func complement(mask []bool) []bool {
	out := make([]bool, len(mask))
	for i, m := range mask {
		out[i] = !m
	}
	return out
}

// reachMask computes, for every node, whether it can reach some node in
// the target mask (backward reachability over reversed edges).
func reachMask(succ [][]int, target []bool) []bool {
	n := len(target)
	pred := make([][]int, n)
	for u, ss := range succ {
		for _, v := range ss {
			pred[v] = append(pred[v], u)
		}
	}
	ok := make([]bool, n)
	var stack []int
	for i, t := range target {
		if t {
			ok[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range pred[v] {
			if !ok[u] {
				ok[u] = true
				stack = append(stack, u)
			}
		}
	}
	return ok
}

// VectorGraph is the reachable configuration graph of a protocol on a
// fixed interaction graph, over agent-state vectors (agents are
// distinguishable here: position in the vector is identity).
type VectorGraph struct {
	Proto protocol.Protocol
	// Edges is the undirected interaction graph as an edge list over
	// agent indices; both orientations of every edge are explored.
	Edges [][2]int
	// Nodes, indexed by dense id in BFS order from the all-initial
	// configuration (node 0). Each node is a full state vector.
	Nodes [][]protocol.State
	// Succ[i] lists the ids reachable from node i by one productive
	// transition along some edge (deduplicated, insertion order).
	Succ [][]int
	// Frozen[i] reports that every transition enabled at node i keeps
	// both participants in their current group.
	Frozen []bool

	index map[string]int
}

func vectorKey(states []protocol.State) string {
	b := make([]byte, len(states))
	for i, s := range states {
		b[i] = byte(s)
	}
	return string(b)
}

// BuildVector explores the configuration graph of p with n agents
// interacting only along edges, starting from the all-initial vector.
// The state space is |Q|^n in the worst case, so this is for SMALL
// instances; construction fails fast past MaxNodes.
func BuildVector(p protocol.Protocol, n int, edges [][2]int) (*VectorGraph, error) {
	if n < 2 {
		return nil, fmt.Errorf("explore: need n >= 2, got %d", n)
	}
	if p.NumStates() > 256 {
		return nil, fmt.Errorf("explore: vector exploration supports at most 256 states, protocol has %d", p.NumStates())
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("explore: empty edge list")
	}
	for _, e := range edges {
		if e[0] == e[1] || e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return nil, fmt.Errorf("explore: invalid edge (%d,%d) for n=%d", e[0], e[1], n)
		}
	}
	start := make([]protocol.State, n)
	for i := range start {
		start[i] = p.InitialState()
	}
	g := &VectorGraph{Proto: p, Edges: edges, index: make(map[string]int)}
	g.add(start)
	for i := 0; i < len(g.Nodes); i++ {
		if len(g.Nodes) > MaxNodes {
			return nil, fmt.Errorf("explore: exceeded %d configurations", MaxNodes)
		}
		cur := g.Nodes[i]
		frozen := true
		var succ []int
		seen := map[int]bool{}
		for _, e := range edges {
			for _, dir := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
				u, v := dir[0], dir[1]
				out, _ := p.Delta(cur[u], cur[v])
				if out.P == cur[u] && out.Q == cur[v] {
					continue
				}
				if p.Group(cur[u]) != p.Group(out.P) || p.Group(cur[v]) != p.Group(out.Q) {
					frozen = false
				}
				next := append([]protocol.State(nil), cur...)
				next[u], next[v] = out.P, out.Q
				id := g.add(next)
				if !seen[id] {
					seen[id] = true
					succ = append(succ, id)
				}
			}
		}
		g.Succ = append(g.Succ, succ)
		g.Frozen = append(g.Frozen, frozen)
	}
	return g, nil
}

func (g *VectorGraph) add(states []protocol.State) int {
	k := vectorKey(states)
	if id, ok := g.index[k]; ok {
		return id
	}
	id := len(g.Nodes)
	g.index[k] = id
	g.Nodes = append(g.Nodes, states)
	return id
}

// Lookup returns the node id of a state vector, if reachable.
func (g *VectorGraph) Lookup(states []protocol.State) (int, bool) {
	id, ok := g.index[vectorKey(states)]
	return id, ok
}

// StableNodes computes the stable mask: nodes whose whole forward
// closure is frozen, that is, the nodes that cannot reach a non-frozen
// one.
func (g *VectorGraph) StableNodes() []bool {
	return complement(g.CanReach(complement(g.Frozen)))
}

// CanReach computes, for every node, whether it can reach some node in
// the target mask.
func (g *VectorGraph) CanReach(target []bool) []bool {
	return reachMask(g.Succ, target)
}

// groupSpread returns max−min of the group-size vector of a state
// vector under p's output mapping.
func groupSpread(p protocol.Protocol, states []protocol.State) int {
	sizes := make([]int, p.NumGroups())
	for _, s := range states {
		sizes[p.Group(s)-1]++
	}
	min, max := sizes[0], sizes[0]
	for _, v := range sizes[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// VectorReport summarizes a CheckVector run.
type VectorReport struct {
	N         int
	Edges     int
	Reachable int // reachable configurations (state vectors)
	Stable    int // stable configurations
	// StableUniform counts stable configurations whose partition is
	// uniform (spread <= the maxSpread passed to CheckVector).
	StableUniform int
	// Trapped counts reachable configurations from which NO
	// stable-uniform configuration is reachable: global fairness over
	// this interaction graph cannot rescue an execution that enters one.
	// Trapped == 0 is exactly "the protocol stabilizes to a uniform
	// partition under global fairness on this graph".
	Trapped int
	// FirstTrapped is a sample trapped configuration (nil when none).
	FirstTrapped []protocol.State
	// FirstStableNonUniform is a sample stable configuration with spread
	// beyond the bound (nil when none) — the partition the protocol
	// freezes into when it fails.
	FirstStableNonUniform []protocol.State
}

// CheckVector model-checks p with n agents on the given interaction
// graph: it reports how many reachable configurations are trapped
// (cannot reach a stable uniform partition) and samples witnesses. On
// the complete graph the protocol has Trapped == 0 (Theorem 1); on
// sparse graphs the trapped count is the exact, exhaustive form of the
// star/ring freeze finding.
func CheckVector(p protocol.Protocol, n int, edges [][2]int, maxSpread int) (VectorReport, error) {
	g, err := BuildVector(p, n, edges)
	if err != nil {
		return VectorReport{}, err
	}
	stable := g.StableNodes()
	rep := VectorReport{N: n, Edges: len(edges), Reachable: len(g.Nodes)}
	goal := make([]bool, len(g.Nodes))
	for i, s := range stable {
		if !s {
			continue
		}
		rep.Stable++
		if groupSpread(p, g.Nodes[i]) <= maxSpread {
			rep.StableUniform++
			goal[i] = true
		} else if rep.FirstStableNonUniform == nil {
			rep.FirstStableNonUniform = append([]protocol.State(nil), g.Nodes[i]...)
		}
	}
	live := g.CanReach(goal)
	for i, ok := range live {
		if !ok {
			rep.Trapped++
			if rep.FirstTrapped == nil {
				rep.FirstTrapped = append([]protocol.State(nil), g.Nodes[i]...)
			}
		}
	}
	return rep, nil
}
