package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// CtxFlow enforces the cancellation invariant PR 2 established by hand:
// every function reachable (over the call graph, goroutine launches
// included) from harness's context-threaded entry points
// (exported *Ctx functions) or from serve's HTTP handlers that contains
// an unbounded loop or a blocking channel operation must both be able
// to receive a context.Context (parameter, context-carrying struct
// parameter or receiver, *http.Request, or closure over one) and poll
// it (ctx.Err()/ctx.Done() directly, or by calling something that
// does). A trial capped at 10^16 interactions that misses one poll in
// one loop is uncancellable in exactly the way this check makes
// structural.
//
// Scope: the check only fires for functions living in the packages that
// carry the invariant (harness, serve, sim, countsim, obs, obs/span).
// Reachable code elsewhere — e.g. internal/rng's rejection samplers,
// whose for-loops terminate with probability 1 after a handful of
// draws — is deliberately out of scope.
var CtxFlow = &lint.Analyzer{
	Name:            "ctxflow",
	Doc:             "functions reachable from RunTrialCtx/serve handlers with unbounded loops or blocking channel ops must accept and poll a context.Context",
	Applies:         ctxflowScope,
	RunProgram:      runCtxFlowProgram,
	Interprocedural: true,
}

func ctxflowScope(path string) bool {
	for _, suf := range []string{"/harness", "/serve", "/sim", "/countsim", "/obs", "/obs/span"} {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

func runCtxFlowProgram(pp *lint.ProgramPass) {
	g := pp.Program.Graph

	// Roots: harness's exported *Ctx entry points and serve's HTTP
	// handlers, identified structurally so golden fixtures under
	// testdata import paths work exactly like the real tree.
	var roots []*lint.Func
	rootOf := make(map[*lint.Func]*lint.Func)
	for _, fn := range g.Funcs {
		if fn.Decl == nil || fn.Obj == nil {
			continue
		}
		path := fn.Pkg.Path
		isRoot := false
		switch {
		case strings.HasSuffix(path, "/harness"):
			isRoot = fn.Obj.Exported() && strings.HasSuffix(fn.Obj.Name(), "Ctx")
		case strings.HasSuffix(path, "/serve"):
			isRoot = isHandlerSig(fn.Sig())
		}
		if isRoot {
			roots = append(roots, fn)
		}
	}

	// Reachability with provenance (which root reached the function, for
	// the diagnostic).
	queue := append([]*lint.Func(nil), roots...)
	for _, r := range roots {
		rootOf[r] = r
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, e := range g.Callees(f) {
			if e.Callee != nil && rootOf[e.Callee] == nil {
				rootOf[e.Callee] = rootOf[f]
				queue = append(queue, e.Callee)
			}
		}
	}

	pollers := pollingFuncs(pp, g)

	fns := make([]*lint.Func, 0, len(rootOf))
	for fn := range rootOf {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Key() < fns[j].Key() })
	for _, fn := range fns {
		if fn.Body() == nil || !ctxflowScope(fn.Pkg.Path) {
			continue
		}
		blocks := blockingConstructs(fn)
		if len(blocks) == 0 {
			continue
		}
		root := rootOf[fn].Name()
		if !acceptsCtx(fn) {
			for _, b := range blocks {
				pp.Reportf(b.pos, "%s is reachable from %s and contains a %s but cannot receive a context.Context; accept ctx (parameter, context-carrying struct, or *http.Request)", fn.Name(), root, b.what)
			}
			continue
		}
		if !pollers[fn] {
			for _, b := range blocks {
				pp.Reportf(b.pos, "%s is reachable from %s and contains a %s but never polls its context (ctx.Err()/ctx.Done(), directly or via a callee); cancellation cannot interrupt it", fn.Name(), root, b.what)
			}
		}
	}
}

// pollingFuncs computes the functions that poll a context: those that
// select .Err or .Done on a context.Context-typed expression, closed
// under "calls a polling function" (static, dynamic, and interface
// edges; a launch via go does not make the launcher polled).
func pollingFuncs(pp *lint.ProgramPass, g *lint.CallGraph) map[*lint.Func]bool {
	polls := make(map[*lint.Func]bool)
	for _, fn := range g.Funcs {
		if fn.Body() != nil && pollsDirectly(fn) {
			polls[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs {
			if polls[fn] {
				continue
			}
			for _, e := range g.Callees(fn) {
				if e.Kind == lint.CallGo {
					continue
				}
				if polls[e.Callee] {
					polls[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return polls
}

func pollsDirectly(fn *lint.Func) bool {
	found := false
	inspectSkippingLits(fn.Body(), func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
			return
		}
		if isContextType(fn.Pkg.Info.TypeOf(sel.X)) {
			found = true
		}
	})
	return found
}

// acceptsCtx reports whether the function can receive a context: a
// context.Context parameter, a parameter or receiver whose struct type
// carries a context.Context field, an *http.Request parameter, or (for
// literals) an enclosing function that accepts one.
func acceptsCtx(fn *lint.Func) bool {
	if sig := fn.Sig(); sig != nil {
		if recv := sig.Recv(); recv != nil && carriesCtx(recv.Type()) {
			return true
		}
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if carriesCtx(params.At(i).Type()) {
				return true
			}
		}
	}
	if fn.Parent != nil {
		return acceptsCtx(fn.Parent)
	}
	return false
}

// carriesCtx reports whether t is context.Context, *http.Request, or a
// (pointer to) struct with a context.Context field.
func carriesCtx(t types.Type) bool {
	if t == nil {
		return false
	}
	if isContextType(t) || typePathString(t) == "*net/http.Request" {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	return t != nil && typePathString(t) == "context.Context"
}

func typePathString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

// blockingConstruct is one potentially-unbounded wait in a function.
type blockingConstruct struct {
	pos  token.Pos
	what string
}

// blockingConstructs lists the unbounded loops and blocking channel
// operations directly in fn's body (function literals are their own
// call-graph nodes and are inspected separately). A send/receive that
// is the communication of a select case is charged to the select; a
// select with a default case never blocks.
func blockingConstructs(fn *lint.Func) []blockingConstruct {
	info := fn.Pkg.Info
	// Communication clauses of selects are governed by their select.
	comm := make(map[ast.Node]bool)
	inspectSkippingLits(fn.Body(), func(n ast.Node) {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				comm[cc.Comm] = true
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						comm[u] = true
					}
					return true
				})
			}
		}
	})

	var out []blockingConstruct
	add := func(pos token.Pos, what string) {
		out = append(out, blockingConstruct{pos: pos, what: what})
	}
	inspectSkippingLits(fn.Body(), func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil {
				add(n.Pos(), "loop with no condition")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					add(n.Pos(), "range over a channel")
				}
			}
		case *ast.SendStmt:
			if !comm[n] {
				add(n.Pos(), "blocking channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comm[n] {
				add(n.Pos(), "blocking channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(n.Pos(), "blocking select")
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// isHandlerSig matches func(http.ResponseWriter, *http.Request).
func isHandlerSig(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return typePathString(sig.Params().At(0).Type()) == "net/http.ResponseWriter" &&
		typePathString(sig.Params().At(1).Type()) == "*net/http.Request"
}

// inspectSkippingLits walks n without entering nested function
// literals.
func inspectSkippingLits(n ast.Node, f func(ast.Node)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		f(m)
		return true
	})
}
