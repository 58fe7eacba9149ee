package lint

// The whole-program layer: a conservative call graph over every loaded
// analysis package, built by class-hierarchy analysis (CHA) on the
// type-checked ASTs. The interprocedural analyzers (ctxflow, lockguard,
// goroutinelife) consume it through Program/ProgramPass.
//
// Resolution policy, most to least precise:
//
//   - Static calls (direct function or method calls) resolve to the one
//     callee, found by its declaration position.
//   - Interface method calls resolve to every method of every named
//     type in the program that implements the interface (CHA). The
//     implements check compares method names and signature strings
//     (sigString), the same form the dynamic calls below match on.
//   - Calls through function values resolve to every address-taken
//     function with an identical signature string.
//   - go and defer call sites produce edges like any other call, tagged
//     with their kind so analyzers can treat goroutine launches
//     specially.
//
// Nodes are keyed by declaration position (file:line:col), the same key
// the fact store uses (FactStore.ObjectKey).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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

	key  string
	name string
}

// Name returns a printable identity: "pkg.Func", "pkg.(T).Method", or
// "pkg.Func$lit@line" for literals.
func (f *Func) Name() string { return f.name }

// Key is the node's stable identity: the declaration position.
func (f *Func) Key() string { return f.key }

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
	// Funcs lists every function node in deterministic (position) order.
	Funcs []*Func
	// GoSites lists every `go` statement in deterministic order.
	GoSites []*GoSite

	byKey   map[string]*Func
	callees map[*Func][]Edge
}

// Callees returns f's outgoing edges in source order.
func (g *CallGraph) Callees(f *Func) []Edge { return g.callees[f] }

// BuildCallGraph constructs the CHA call graph over the packages.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byKey:   make(map[string]*Func),
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
	for _, pkg := range pkgs {
		b.collectEdges(pkg)
	}
	b.finish()
	return g
}

type graphBuilder struct {
	fset *token.FileSet
	g    *CallGraph

	// addrTaken maps signature strings to the functions whose address
	// escapes (referenced outside call position), the CallDynamic
	// candidate set.
	addrTaken map[string][]*Func
	// methods maps "TypeName.Method" candidate implementations for CHA,
	// per signature-independent name; resolution filters by signature.
	concrete []concreteType
}

type concreteType struct {
	named *types.Named
	pkg   *Package
}

func (b *graphBuilder) keyOf(pos token.Pos) string { return b.fset.Position(pos).String() }

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
				key:  b.keyOf(fd.Name.Pos()),
				name: declName(pkg, fd),
			}
			b.g.byKey[n.key] = n
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
			key:    b.keyOf(lit.Pos()),
			name:   fmt.Sprintf("%s$lit@%d", pname, b.fset.Position(lit.Pos()).Line),
		}
		b.g.byKey[node.key] = node
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
// functions by signature string, and named types with method sets.
func (b *graphBuilder) indexCandidates(pkgs []*Package) {
	b.addrTaken = make(map[string][]*Func)
	for _, pkg := range pkgs {
		// Named types for interface resolution.
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				b.concrete = append(b.concrete, concreteType{named: named, pkg: pkg})
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
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				node := b.g.byKey[b.keyOf(fn.Pos())]
				if node == nil {
					return true
				}
				sig := sigString(fn.Type())
				b.addrTaken[sig] = append(b.addrTaken[sig], node)
				return true
			})
		}
	}
	// Function literals that are not immediately invoked are dynamic
	// candidates as well: any literal whose parent expression is not a
	// call is address-taken by construction. Conservatively include
	// every literal node.
	for _, f := range b.g.Funcs {
		if f.Lit == nil {
			continue
		}
		if sig := f.Sig(); sig != nil {
			b.addrTaken[sigString(sig)] = append(b.addrTaken[sigString(sig)], f)
		}
	}
}

// sigString renders a signature with package-path qualification, the
// graph's comparison form for signatures. Parameter and result names
// are stripped first: a declaration's signature carries them but a
// function value's type usually does not, and the two must compare
// equal.
func sigString(t types.Type) string {
	return types.TypeString(stripSigNames(t), func(p *types.Package) string { return p.Path() })
}

func stripSigNames(t types.Type) types.Type {
	sig, ok := t.(*types.Signature)
	if !ok {
		return t
	}
	strip := func(tup *types.Tuple) *types.Tuple {
		if tup == nil {
			return nil
		}
		vars := make([]*types.Var, tup.Len())
		for i := range vars {
			vars[i] = types.NewVar(token.NoPos, nil, "", stripSigNames(tup.At(i).Type()))
		}
		return types.NewTuple(vars...)
	}
	return types.NewSignatureType(nil, nil, nil, strip(sig.Params()), strip(sig.Results()), sig.Variadic())
}

// collectEdges resolves every call, go, and defer site in pkg.
func (b *graphBuilder) collectEdges(pkg *Package) {
	for _, file := range pkg.Files {
		// handled marks call expressions already resolved by an
		// enclosing go/defer statement, and literals already reached by
		// resolving a call, so the generic cases do not add a second
		// (wrongly-kinded) edge for the same site.
		handledCall := make(map[*ast.CallExpr]bool)
		handledLit := make(map[*ast.FuncLit]bool)
		// enclosing tracks the current function node during the walk.
		var walk func(n ast.Node, enclosing *Func)
		handleCall := func(call *ast.CallExpr, enclosing *Func, launch CallKind) []*Func {
			var targets []*Func
			for _, rc := range b.resolve(pkg, call) {
				kind := rc.kind
				// A go/defer site keeps its launch kind; how the callee
				// was found (interface set, address-taken set) matters
				// less than that the call is a launch/deferral.
				if launch == CallGo || launch == CallDefer {
					kind = launch
				}
				if rc.fn.Lit != nil {
					handledLit[rc.fn.Lit] = true
				}
				b.addEdge(Edge{Caller: enclosing, Callee: rc.fn, Kind: kind, Pos: call.Pos()})
				targets = append(targets, rc.fn)
			}
			return targets
		}
		walk = func(n ast.Node, enclosing *Func) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncDecl:
					if m.Body == nil {
						return false
					}
					walk(m.Body, b.g.byKey[b.keyOf(m.Name.Pos())])
					return false
				case *ast.FuncLit:
					if m.Pos() == n.Pos() {
						return true // the node we were asked to walk
					}
					lnode := b.g.byKey[b.keyOf(m.Pos())]
					// A literal is "called" by its enclosing function for
					// reachability purposes (it runs — immediately, later,
					// or on another goroutine) — unless a call site already
					// claimed it with a more precise kind.
					if lnode != nil && !handledLit[m] {
						b.addEdge(Edge{Caller: enclosing, Callee: lnode, Kind: CallStatic, Pos: m.Pos()})
					}
					walk(m.Body, lnode)
					return false
				case *ast.GoStmt:
					handledCall[m.Call] = true
					targets := handleCall(m.Call, enclosing, CallGo)
					b.g.GoSites = append(b.g.GoSites, &GoSite{Stmt: m, Caller: enclosing, Pkg: pkg, Targets: targets})
					// Continue into args and the call fun (literals inside
					// are handled by the FuncLit case).
					return true
				case *ast.DeferStmt:
					handledCall[m.Call] = true
					handleCall(m.Call, enclosing, CallDefer)
					return true
				case *ast.CallExpr:
					if !handledCall[m] {
						handleCall(m, enclosing, CallStatic)
					}
					return true
				}
				return true
			})
		}
		walk(file, nil)
	}
}

// resolvedCallee is one callee with the kind its resolution implies.
type resolvedCallee struct {
	fn   *Func
	kind CallKind
}

// resolve returns the callee nodes a call may reach, each tagged
// static/interface/dynamic by how it was found.
func (b *graphBuilder) resolve(pkg *Package, call *ast.CallExpr) []resolvedCallee {
	fun := ast.Unparen(call.Fun)
	// Immediately invoked literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if n := b.g.byKey[b.keyOf(lit.Pos())]; n != nil {
			return []resolvedCallee{{fn: n, kind: CallStatic}}
		}
		return nil
	}
	// Conversions T(x) resolve to nothing.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	// Static resolution (direct function/method).
	if fn := CalleeFunc(pkg.Info, call); fn != nil {
		// Interface method: CHA over implementing types.
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if types.IsInterface(s.Recv()) {
					return b.resolveInterface(s.Recv(), fn)
				}
			}
		}
		if n := b.g.byKey[b.keyOf(fn.Pos())]; n != nil {
			return []resolvedCallee{{fn: n, kind: CallStatic}}
		}
		return nil
	}
	// Builtins resolve to nothing.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return nil
		}
	}
	// Dynamic call through a function value: every address-taken
	// function with the same signature string. Info.Types may omit bare
	// identifiers (go/types records those in Uses/Defs), so fall back to
	// the object's type.
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
		return nil
	}
	if _, isSig := funType.Underlying().(*types.Signature); !isSig {
		return nil
	}
	var out []resolvedCallee
	for _, fn := range b.addrTaken[sigString(funType)] {
		out = append(out, resolvedCallee{fn: fn, kind: CallDynamic})
	}
	return out
}

// resolveInterface returns every program method implementing the called
// interface method (CHA). The implements test is structural by name and
// signature string.
func (b *graphBuilder) resolveInterface(recv types.Type, m *types.Func) []resolvedCallee {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []resolvedCallee
	for _, ct := range b.concrete {
		if !implementsByString(ct.named, iface) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(ct.named))
		for i := 0; i < ms.Len(); i++ {
			cand, ok := ms.At(i).Obj().(*types.Func)
			if !ok || cand.Name() != m.Name() {
				continue
			}
			if n := b.g.byKey[b.keyOf(cand.Pos())]; n != nil {
				out = append(out, resolvedCallee{fn: n, kind: CallInterface})
			}
		}
	}
	return out
}

// implementsByString reports whether *T satisfies iface, comparing
// method names and signature strings (parameter/result types rendered
// with package-path qualification) instead of object identity.
func implementsByString(named *types.Named, iface *types.Interface) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		sel := ms.Lookup(want.Pkg(), want.Name())
		if sel == nil {
			return false
		}
		got, ok := sel.Obj().(*types.Func)
		if !ok {
			return false
		}
		if sigString(got.Type()) != sigString(want.Type()) {
			return false
		}
	}
	return iface.NumMethods() > 0
}

func (b *graphBuilder) addEdge(e Edge) {
	if e.Caller == nil || e.Callee == nil {
		return
	}
	b.g.callees[e.Caller] = append(b.g.callees[e.Caller], e)
}

// finish orders Funcs and GoSites deterministically.
func (b *graphBuilder) finish() {
	sort.Slice(b.g.Funcs, func(i, j int) bool { return b.g.Funcs[i].key < b.g.Funcs[j].key })
	sort.Slice(b.g.GoSites, func(i, j int) bool {
		return b.keyOf(b.g.GoSites[i].Stmt.Pos()) < b.keyOf(b.g.GoSites[j].Stmt.Pos())
	})
}
