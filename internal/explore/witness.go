package explore

// This file adds witness extraction to the model checker: shortest
// configuration paths (e.g. "show me an execution from the initial
// configuration to a stable one", or to a counterexample).

// ShortestPath returns node ids of a shortest path from `from` to any node
// with target[id] == true, by BFS. ok is false when unreachable. The path
// includes both endpoints; a path of length 1 means `from` is already in
// the target set.
func (g *Graph) ShortestPath(from int, target []bool) (path []int, ok bool) {
	if from < 0 || from >= len(g.Nodes) {
		return nil, false
	}
	if target[from] {
		return []int{from}, true
	}
	prev := make([]int, len(g.Nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[from] = from
	queue := []int{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Succ[v] {
			if prev[w] != -1 {
				continue
			}
			prev[w] = v
			if target[w] {
				// Reconstruct.
				var rev []int
				for x := w; x != from; x = prev[x] {
					rev = append(rev, x)
				}
				rev = append(rev, from)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev, true
			}
			queue = append(queue, w)
		}
	}
	return nil, false
}

// WitnessToStable returns a shortest configuration sequence from the
// initial configuration to a stable one, rendered with state names — the
// constructive content of Theorem 1 for this population size.
func (g *Graph) WitnessToStable() ([]string, bool) {
	path, ok := g.ShortestPath(0, g.StableNodes())
	if !ok {
		return nil, false
	}
	out := make([]string, len(path))
	for i, id := range path {
		out[i] = g.Nodes[id].Format(g.Proto)
	}
	return out, true
}
