package lint

// The whole-program layer: a conservative call graph over every loaded
// analysis package, built by class-hierarchy analysis (CHA) on the
// type-checked ASTs. The interprocedural analyzers (ctxflow, lockguard,
// goroutinelife) consume it through Program/ProgramPass.
//
// Resolution policy, most to least precise:
//
//   - Static calls (direct function or method calls) resolve to the one
//     callee, found by its *types.Func.
//   - Interface method calls resolve to the method of every named type
//     in the program whose pointer implements the interface (CHA,
//     types.Implements).
//   - Calls through function values resolve to every address-taken
//     function whose signature is types.Identical to the value's,
//     through a named function type as well as a literal one.
//   - go and defer call sites produce edges like any other call, tagged
//     with their kind so analyzers can treat goroutine launches
//     specially.
//
// A call site has one edge per callee, however many ways resolution
// finds it. Nodes are indexed by their object (declared functions,
// Origin-normalized) or their *ast.FuncLit (literals); the loader gives
// every package the same objects, so no string stands in for one.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// CallKind classifies a call-graph edge.
type CallKind uint8

// The edge kinds.
const (
	// CallStatic is a direct call to a known function or method.
	CallStatic CallKind = iota
	// CallGo is a `go` statement's launch of its function.
	CallGo
	// CallDefer is a deferred call.
	CallDefer
	// CallInterface is a CHA-resolved interface method call: one edge
	// per implementing method in the program.
	CallInterface
	// CallDynamic is a call through a function value: one edge per
	// address-taken function with a matching signature.
	CallDynamic
)

// String names the kind for diagnostics.
func (k CallKind) String() string {
	switch k {
	case CallStatic:
		return "static"
	case CallGo:
		return "go"
	case CallDefer:
		return "defer"
	case CallInterface:
		return "interface"
	case CallDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Func is one call-graph node: a declared function or method (Decl set)
// or a function literal (Lit set), with the analysis package its body
// lives in. Function literals are nodes of their own so a goroutine
// body or a callback can be analyzed separately from its enclosing
// function.
type Func struct {
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the analysis unit holding the body.
	Pkg *Package
	// Parent is the enclosing function of a literal (nil for declared
	// functions and for literals in package-level initializers).
	Parent *Func

	name string
}

// Name returns a printable name: "pkg.Func", "pkg.(T).Method", or
// "pkg.Func$lit@line" for literals.
func (f *Func) Name() string { return f.name }

// Pos returns the declaration or literal position.
func (f *Func) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// Body returns the function body (nil for a bodyless declaration, e.g.
// assembly stubs).
func (f *Func) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// Sig returns the type-checked signature, or nil when unavailable.
func (f *Func) Sig() *types.Signature {
	if f.Obj != nil {
		sig, _ := f.Obj.Type().(*types.Signature)
		return sig
	}
	if tv, ok := f.Pkg.Info.Types[f.Lit]; ok {
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	return nil
}

// Edge is one resolved call: Caller invokes Callee at Pos.
type Edge struct {
	Caller *Func
	Callee *Func
	Kind   CallKind
	// Pos is the call (or go/defer) position in the caller.
	Pos token.Pos
}

// GoSite is one `go` statement with its resolved launch targets (empty
// when the target is a function value the graph cannot resolve).
type GoSite struct {
	Stmt    *ast.GoStmt
	Caller  *Func
	Pkg     *Package
	Targets []*Func
}

// CallGraph is the program-wide CHA call graph.
type CallGraph struct {
	// Funcs lists every function node in position order.
	Funcs []*Func
	// GoSites lists every `go` statement in position order.
	GoSites []*GoSite

	byObj   map[*types.Func]*Func
	byLit   map[*ast.FuncLit]*Func
	callees map[*Func][]Edge
}

// Callees returns f's outgoing edges in source order.
func (g *CallGraph) Callees(f *Func) []Edge { return g.callees[f] }

// BuildCallGraph constructs the CHA call graph over the packages.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj:   make(map[*types.Func]*Func),
		byLit:   make(map[*ast.FuncLit]*Func),
		callees: make(map[*Func][]Edge),
	}
	b := &graphBuilder{fset: fset, g: g}
	// Two passes: nodes (and CHA/dynamic candidate indexes) first, so
	// edge resolution in the second pass sees every candidate regardless
	// of package order.
	for _, pkg := range pkgs {
		b.collectNodes(pkg)
	}
	b.indexCandidates(pkgs)
	for _, fn := range g.Funcs {
		b.collectEdges(fn)
	}
	sort.Slice(g.Funcs, func(i, j int) bool { return g.Funcs[i].Pos() < g.Funcs[j].Pos() })
	sort.Slice(g.GoSites, func(i, j int) bool { return g.GoSites[i].Stmt.Pos() < g.GoSites[j].Stmt.Pos() })
	return g
}

type graphBuilder struct {
	fset *token.FileSet
	g    *CallGraph

	// addrTaken lists the functions whose address escapes (referenced
	// outside call position), the CallDynamic candidates.
	addrTaken []*Func
	// named lists the program's package-level named types, the CHA
	// candidates of an interface call.
	named []*types.Named
}

// collectNodes registers every declared function and function literal
// in pkg as a node.
func (b *graphBuilder) collectNodes(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			n := &Func{
				Obj:  obj,
				Decl: fd,
				Pkg:  pkg,
				name: declName(pkg, fd),
			}
			if obj != nil {
				b.g.byObj[obj] = n
			}
			b.g.Funcs = append(b.g.Funcs, n)
			if fd.Body != nil {
				b.collectLits(pkg, n, fd.Body)
			}
		}
		// Function literals in package-level initializers get nodes too
		// (no parent).
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			b.collectLits(pkg, nil, gd)
		}
	}
}

// collectLits registers the function literals directly inside root
// (transitively; each literal's Parent is the nearest enclosing node).
func (b *graphBuilder) collectLits(pkg *Package, parent *Func, root ast.Node) {
	var walk func(n ast.Node, parent *Func) bool
	walk = func(n ast.Node, parent *Func) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		pname := pkg.Pkg.Name()
		if parent != nil {
			pname = parent.name
		}
		node := &Func{
			Lit:    lit,
			Pkg:    pkg,
			Parent: parent,
			name:   fmt.Sprintf("%s$lit@%d", pname, b.fset.Position(lit.Pos()).Line),
		}
		b.g.byLit[lit] = node
		b.g.Funcs = append(b.g.Funcs, node)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if m == lit.Body {
				return true
			}
			return walk(m, node)
		})
		return false // children handled by the nested Inspect above
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == root {
			return true
		}
		return walk(n, parent)
	})
}

func declName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return fmt.Sprintf("%s.(%s).%s", pkg.Pkg.Name(), id.Name, fd.Name.Name)
		}
	}
	return pkg.Pkg.Name() + "." + fd.Name.Name
}

// indexCandidates builds the CHA candidate indexes: address-taken
// functions and named types.
func (b *graphBuilder) indexCandidates(pkgs []*Package) {
	for _, pkg := range pkgs {
		// Named types for interface resolution.
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				b.named = append(b.named, named)
			}
		}
		// Address-taken functions: any use of a function identifier
		// outside the Fun position of a call.
		for _, file := range pkg.Files {
			callFuns := make(map[*ast.Ident]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callFuns[fun] = true
				case *ast.SelectorExpr:
					callFuns[fun.Sel] = true
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || callFuns[id] {
					return true
				}
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
					if node := b.g.byObj[fn.Origin()]; node != nil {
						b.addrTaken = append(b.addrTaken, node)
					}
				}
				return true
			})
		}
	}
	// Function literals that are not immediately invoked are dynamic
	// candidates as well: any literal whose parent expression is not a
	// call is address-taken by construction. Conservatively include
	// every literal node.
	for _, f := range b.g.Funcs {
		if f.Lit != nil {
			b.addrTaken = append(b.addrTaken, f)
		}
	}
}

// collectEdges resolves every call, go, and defer site in fn's body.
// A nested literal's body belongs to the literal's own node; fn gets a
// static edge to the literal itself.
func (b *graphBuilder) collectEdges(fn *Func) {
	body := fn.Body()
	if body == nil {
		return
	}
	// handled marks calls already resolved by their go or defer
	// statement and literals already reached as the function of a call,
	// so the generic cases do not add a second (wrongly-kinded) edge for
	// the same site.
	handled := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal is "called" by its enclosing function for
			// reachability purposes (it runs — immediately, later, or on
			// another goroutine) — unless a call site already claimed it
			// with a more precise kind.
			if !handled[n] {
				b.addEdge(fn, b.g.byLit[n], CallStatic, n.Pos())
			}
			return false
		case *ast.GoStmt:
			handled[n.Call] = true
			targets := b.addCall(fn, n.Call, CallGo, handled)
			b.g.GoSites = append(b.g.GoSites, &GoSite{Stmt: n, Caller: fn, Pkg: fn.Pkg, Targets: targets})
		case *ast.DeferStmt:
			handled[n.Call] = true
			b.addCall(fn, n.Call, CallDefer, handled)
		case *ast.CallExpr:
			if !handled[n] {
				b.addCall(fn, n, CallStatic, handled)
			}
		}
		// Continue into the arguments and the call's function: nested
		// calls get edges of their own, literals the case above.
		return true
	})
}

// addCall adds one edge from caller to each callee call may reach and
// returns the callees. A go or defer site keeps its launch kind; how
// the callee was found (interface set, address-taken set) matters less
// than that the call is a launch or deferral.
func (b *graphBuilder) addCall(caller *Func, call *ast.CallExpr, launch CallKind, handled map[ast.Node]bool) []*Func {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		handled[lit] = true
	}
	kind, callees := b.resolve(caller.Pkg, call)
	if launch != CallStatic {
		kind = launch
	}
	var targets []*Func
	for _, callee := range callees {
		if callee == nil || slices.Contains(targets, callee) {
			continue
		}
		targets = append(targets, callee)
		b.addEdge(caller, callee, kind, call.Pos())
	}
	return targets
}

// resolve returns the callee nodes a call may reach and the kind
// (static, interface or dynamic) by which they were found.
func (b *graphBuilder) resolve(pkg *Package, call *ast.CallExpr) (CallKind, []*Func) {
	fun := ast.Unparen(call.Fun)
	// Immediately invoked literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		return CallStatic, []*Func{b.g.byLit[lit]}
	}
	// Conversions T(x) resolve to nothing.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return CallStatic, nil
	}
	// Static resolution (direct function/method).
	if fn := CalleeFunc(pkg.Info, call); fn != nil {
		// Interface method: CHA over implementing types.
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if types.IsInterface(s.Recv()) {
					return CallInterface, b.implementations(s.Recv(), fn)
				}
			}
		}
		if n := b.g.byObj[fn.Origin()]; n != nil {
			return CallStatic, []*Func{n}
		}
		return CallStatic, nil
	}
	// Builtins resolve to nothing.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return CallStatic, nil
		}
	}
	// Dynamic call through a function value: every address-taken
	// function whose signature is identical to the value's underlying
	// one (a named function type's calls match too). Info.Types may
	// omit bare identifiers (go/types records those in Uses/Defs), so
	// fall back to the object's type.
	var funType types.Type
	if tv, ok := pkg.Info.Types[call.Fun]; ok {
		funType = tv.Type
	} else if id, ok := fun.(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil {
			funType = obj.Type()
		} else if obj := pkg.Info.Defs[id]; obj != nil {
			funType = obj.Type()
		}
	}
	if funType == nil {
		return CallDynamic, nil
	}
	sig, ok := funType.Underlying().(*types.Signature)
	if !ok {
		return CallDynamic, nil
	}
	var out []*Func
	for _, fn := range b.addrTaken {
		if types.Identical(fn.Sig(), sig) {
			out = append(out, fn)
		}
	}
	return CallDynamic, out
}

// implementations returns the method m of every named type in the
// program whose pointer implements the called interface (CHA).
func (b *graphBuilder) implementations(recv types.Type, m *types.Func) []*Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Func
	for _, named := range b.named {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) {
			continue
		}
		if sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()); sel != nil {
			if n := b.g.byObj[sel.Obj().(*types.Func).Origin()]; n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

func (b *graphBuilder) addEdge(caller, callee *Func, kind CallKind, pos token.Pos) {
	if callee == nil {
		return
	}
	b.g.callees[caller] = append(b.g.callees[caller], Edge{Caller: caller, Callee: callee, Kind: kind, Pos: pos})
}
