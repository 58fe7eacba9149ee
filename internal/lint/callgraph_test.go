package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadTestProgram writes a scratch module, loads each package dir as an
// analysis unit, and builds its call graph.
func loadTestProgram(t *testing.T, files map[string]string, pkgDirs ...string) (*CallGraph, []*Package) {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range pkgDirs {
		pkg, err := loader.Load(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return BuildCallGraph(loader.Fset, pkgs), pkgs
}

func findFunc(t *testing.T, g *CallGraph, name string) *Func {
	t.Helper()
	for _, fn := range g.Funcs {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("no node named %s in %d-node graph", name, len(g.Funcs))
	return nil
}

// calleeNames returns "kind name" for every edge out of fn, sorted.
func calleeNames(g *CallGraph, fn *Func) []string {
	var out []string
	for _, e := range g.Callees(fn) {
		out = append(out, e.Kind.String()+" "+e.Callee.Name())
	}
	return out
}

func hasEdge(g *CallGraph, fn *Func, want string) bool {
	for _, s := range calleeNames(g, fn) {
		if s == want {
			return true
		}
	}
	return false
}

func TestCallGraphEdgeKinds(t *testing.T) {
	g, _ := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

type runner interface{ Run() }

type fast struct{}

func (fast) Run() {}

type slow struct{}

func (*slow) Run() {}

func direct() {}

func dynTarget(x uint16) uint16 { return x }

func driver(r runner, f func(uint16) uint16) {
	direct()
	go direct()
	defer direct()
	r.Run()
	f(1)
	func() { direct() }()
}

func takeAddr() func(uint16) uint16 { return dynTarget }
`,
	}, "p")

	driver := findFunc(t, g, "p.driver")
	for _, want := range []string{
		"static p.direct",
		"go p.direct",
		"defer p.direct",
		"interface p.(fast).Run",
		"interface p.(slow).Run",
		"dynamic p.dynTarget",
	} {
		if !hasEdge(g, driver, want) {
			t.Errorf("driver is missing edge %q; has %v", want, calleeNames(g, driver))
		}
	}
	// The immediately-invoked literal is a node of its own, reached from
	// driver, and its body's call produces its own static edge.
	var lit *Func
	for _, e := range g.Callees(driver) {
		if e.Callee.Lit != nil {
			lit = e.Callee
		}
	}
	if lit == nil {
		t.Fatalf("driver has no literal callee; has %v", calleeNames(g, driver))
	}
	if lit.Parent != driver {
		t.Errorf("literal's Parent = %v, want driver", lit.Parent)
	}
	if !hasEdge(g, lit, "static p.direct") {
		t.Errorf("literal body edge missing; has %v", calleeNames(g, lit))
	}
}

func TestCallGraphGoSitesAndUnresolved(t *testing.T) {
	g, _ := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

func work() {}

func launch(f func(int8) int8) {
	go work()
	go f(0)
}
`,
	}, "p")
	if len(g.GoSites) != 2 {
		t.Fatalf("want 2 go sites, got %d", len(g.GoSites))
	}
	if n := len(g.GoSites[0].Targets); n != 1 || g.GoSites[0].Targets[0].Name() != "p.work" {
		t.Errorf("first go site targets = %v", g.GoSites[0].Targets)
	}
	// No address-taken function matches func(int8) int8, so the second
	// site must stay unresolved rather than guess.
	if n := len(g.GoSites[1].Targets); n != 0 {
		t.Errorf("second go site should be unresolved, got %d targets", n)
	}
}

func TestCallGraphReachableAndCrossPackage(t *testing.T) {
	g, pkgs := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": `package a

// Leaf is called from package b.
func Leaf() {}
`,
		"b/b.go": `package b

import "example.com/m/a"

func Root() { a.Leaf() }

func orphan() {}
`,
	}, "a", "b")
	_ = pkgs
	root := findFunc(t, g, "b.Root")
	// The static call crosses the package boundary: b's view of a.Leaf
	// resolves to a's node by declaration position.
	if !hasEdge(g, root, "static a.Leaf") {
		t.Fatalf("cross-package static edge missing; has %v", calleeNames(g, root))
	}
}

func TestCallGraphDeterministicOrder(t *testing.T) {
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

func a() { b(); c() }
func b() { c() }
func c() {}
`,
	}
	g1, _ := loadTestProgram(t, files, "p")
	g2, _ := loadTestProgram(t, files, "p")
	names := func(g *CallGraph) string {
		var b strings.Builder
		for _, fn := range g.Funcs {
			b.WriteString(fn.Name())
			b.WriteByte('\n')
			for _, s := range calleeNames(g, fn) {
				b.WriteString("  " + s + "\n")
			}
		}
		return b.String()
	}
	if names(g1) != names(g2) {
		t.Errorf("graph order not deterministic:\n%s\nvs\n%s", names(g1), names(g2))
	}
}
