package lint

import (
	"fmt"
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

// countEdges counts fn's outgoing edges named want ("kind name").
func countEdges(g *CallGraph, fn *Func, want string) int {
	n := 0
	for _, s := range calleeNames(g, fn) {
		if s == want {
			n++
		}
	}
	return n
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

type closer interface{ Close() }

// base's Close is promoted into both embedders.
type base struct{}

func (*base) Close() {}

type embedA struct{ *base }

type embedB struct{ *base }

func direct() {}

func dynTarget(x uint16) uint16 { return x }

// op is a named function type: a call through it reaches neg.
type op func(int8) int8

func neg(x int8) int8 { return -x }

func driver(r runner, f func(uint16) uint16, c closer, o op) {
	direct()
	go direct()
	defer direct()
	r.Run()
	f(1)
	func() { direct() }()
	c.Close()
	o(2)
}

func takeAddr() func(uint16) uint16 { return dynTarget }

func takeAgain() func(uint16) uint16 { return dynTarget }

var _ op = neg

// run calls a function value that may be keeper's literal, which is
// still keeper's own callee.
func run(cb func(int32)) { cb(0) }

func keeper() { run(func(int32) {}) }
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

	// One edge per call site and callee: c.Close() reaches base's Close
	// once though three types have it in their method sets, and f(1)
	// reaches dynTarget once though two functions take its address. A
	// call through the named type op reaches neg as one through its
	// underlying signature would.
	for _, row := range []struct {
		edge string
		n    int
	}{
		{"interface p.(base).Close", 1},
		{"dynamic p.dynTarget", 1},
		{"dynamic p.neg", 1},
	} {
		if got := countEdges(g, driver, row.edge); got != row.n {
			t.Errorf("driver has %d edges %q, want %d; has %v", got, row.edge, row.n, calleeNames(g, driver))
		}
	}
	if got := len(g.Callees(driver)); got != 9 {
		t.Errorf("driver has %d edges, want 9: %v", got, calleeNames(g, driver))
	}

	// A literal passed as an argument is a static callee of its
	// enclosing function, even where an earlier function's call through
	// a value resolves to it too.
	keeper := findFunc(t, g, "p.keeper")
	var keeperLit *Func
	for _, e := range g.Callees(keeper) {
		if e.Callee.Lit != nil && e.Kind == CallStatic {
			keeperLit = e.Callee
		}
	}
	if keeperLit == nil || keeperLit.Parent != keeper {
		t.Fatalf("keeper has no static edge to its literal; has %v", calleeNames(g, keeper))
	}
	if run := findFunc(t, g, "p.run"); !hasEdge(g, run, "dynamic "+keeperLit.Name()) {
		t.Errorf("run's call through cb misses keeper's literal; has %v", calleeNames(g, run))
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
	// resolves to a's node by its object.
	if !hasEdge(g, root, "static a.Leaf") {
		t.Fatalf("cross-package static edge missing; has %v", calleeNames(g, root))
	}
}

// Both packages see one io: the call through io.Writer reaches a's Write,
// and the call through io.WriterTo reaches a's WriteTo, whose parameter
// is an io.Writer; types.Implements matches that parameter only when a
// and b were checked against the same io package.
func TestCallGraphStdlibIdentityAcrossPackages(t *testing.T) {
	g, _ := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": `package a

import "io"

// Buf is written to through package b's interfaces.
type Buf struct{}

// Write implements io.Writer.
func (*Buf) Write(p []byte) (int, error) { return len(p), nil }

// WriteTo implements io.WriterTo.
func (*Buf) WriteTo(w io.Writer) (int64, error) { return 0, nil }
`,
		"b/b.go": `package b

import "io"

// Flush writes through both interfaces.
func Flush(w io.Writer, wt io.WriterTo) {
	w.Write(nil)
	wt.WriteTo(w)
}
`,
	}, "a", "b")
	flush := findFunc(t, g, "b.Flush")
	for _, want := range []string{"interface a.(Buf).Write", "interface a.(Buf).WriteTo"} {
		if got := countEdges(g, flush, want); got != 1 {
			t.Errorf("Flush has %d edges %q, want 1; has %v", got, want, calleeNames(g, flush))
		}
	}
}

// Funcs and GoSites are in source order: line 9 before line 10.
func TestCallGraphPositionOrder(t *testing.T) {
	g, _ := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

func first() {}

func second() {}

func launch() {
	go first()
	go second()
	go first()
}

func last() {}
`,
	}, "p")
	var names []string
	for _, fn := range g.Funcs {
		names = append(names, fn.Name())
	}
	if got, want := strings.Join(names, " "), "p.first p.second p.launch p.last"; got != want {
		t.Errorf("Funcs = %s, want %s", got, want)
	}
	var lines []int
	for _, s := range g.GoSites {
		lines = append(lines, s.Pkg.Fset.Position(s.Stmt.Pos()).Line)
	}
	if got, want := fmt.Sprint(lines), "[8 9 10]"; got != want {
		t.Errorf("GoSites on lines %s, want %s", got, want)
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
