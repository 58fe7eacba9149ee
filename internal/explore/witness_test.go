package explore

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestShortestPathToStable(t *testing.T) {
	p := core.MustNew(3)
	g, err := Build(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	stable := g.StableNodes()
	path, ok := g.ShortestPath(0, stable)
	if !ok {
		t.Fatal("no path from initial to stable")
	}
	if path[0] != 0 || !stable[path[len(path)-1]] {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	// Every hop must be an actual edge.
	for i := 0; i+1 < len(path); i++ {
		found := false
		for _, w := range g.Succ[path[i]] {
			if w == path[i+1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("path uses non-edge %d -> %d", path[i], path[i+1])
		}
	}
	// n=6, k=3: the fastest run is flip + rule5 + two feeds + second
	// grouping = at least 2·(n/k) productive transitions... just bound it
	// loosely: strictly more than 1 hop, and a shortest path meets no
	// stable node before its last.
	if len(path) < 3 {
		t.Fatalf("suspicious path length %d", len(path))
	}
	for _, id := range path[:len(path)-1] {
		if stable[id] {
			t.Fatalf("path %v passes stable node %d before its end", path, id)
		}
	}
}

func TestShortestPathAlreadyInTarget(t *testing.T) {
	p := core.MustNew(2)
	g, err := Build(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]bool, len(g.Nodes))
	target[0] = true
	path, ok := g.ShortestPath(0, target)
	if !ok || len(path) != 1 || path[0] != 0 {
		t.Fatalf("path %v ok %v", path, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	p := core.MustNew(3)
	g, err := Build(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.ShortestPath(0, make([]bool, len(g.Nodes))); ok {
		t.Fatal("empty target reached")
	}
	if _, ok := g.ShortestPath(-1, make([]bool, len(g.Nodes))); ok {
		t.Fatal("invalid start accepted")
	}
}

func TestWitnessToStableReadable(t *testing.T) {
	p := core.MustNew(3)
	g, err := Build(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	steps, ok := g.WitnessToStable()
	if !ok {
		t.Fatal("no witness")
	}
	if !strings.Contains(steps[0], "initial:6") {
		t.Fatalf("witness starts at %q", steps[0])
	}
	last := steps[len(steps)-1]
	if !strings.Contains(last, "g3:2") {
		t.Fatalf("witness ends at %q", last)
	}
}
