package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// GoroutineLife enforces provable goroutine exit in the long-lived
// layers (serve, harness, obs): every `go` statement there must launch
// a function the analyzer can resolve, and no function the goroutine
// (transitively, over static calls) executes may contain a construct
// that can run forever with no escape:
//
//   - a condition-less for loop with no break or return inside it,
//   - a range over a channel that has no break/return in its body and
//     is never closed anywhere in the program (close sites are exported
//     as facts by the per-package pass, so a worker ranging a queue
//     closed by another package's Close method passes), or
//   - an empty select{}.
//
// The abstraction errs conservative: a break buried behind an
// unreachable condition counts as an escape, and calls the graph cannot
// resolve (function values) are assumed terminating — goroutinelife
// kills the structural leak class behind the PR-6 race fixes (waiters
// parked forever on channels nothing closes), not every liveness bug.
var GoroutineLife = &lint.Analyzer{
	Name:            "goroutinelife",
	Doc:             "every go statement in serve/harness/obs must have a provable exit path (ctx/done escape, closed channel, or return)",
	Applies:         goroutineLifeScope,
	Run:             runGoroutineLife,
	RunProgram:      runGoroutineLifeProgram,
	Interprocedural: true,
}

func goroutineLifeScope(path string) bool {
	for _, suf := range []string{"/serve", "/harness", "/obs", "/obs/span"} {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

// chanClosedFact marks a channel-valued object (field, variable, or
// parameter) as closed somewhere in the program.
type chanClosedFact struct{}

func (*chanClosedFact) AFact() {}

// runGoroutineLife exports a close fact for every close(ch) whose
// operand resolves to a named object.
func runGoroutineLife(pass *lint.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "close" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if obj := chanObject(pass.Info, call.Args[0]); obj != nil {
				pass.Facts.ExportObjectFact(obj, &chanClosedFact{})
			}
			return true
		})
	}
}

// chanObject resolves a channel expression to its named object: a
// plain identifier (variable, parameter) or a selected struct field.
func chanObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	case *ast.IndexExpr:
		// close(slots[i]): charge the close to the container object, so
		// ranging over an element drawn from the same container counts.
		return chanObject(info, e.X)
	}
	return nil
}

func runGoroutineLifeProgram(pp *lint.ProgramPass) {
	g := pp.Program.Graph
	memo := make(map[*lint.Func]*divergence)
	for _, site := range g.GoSites {
		if !goroutineLifeScope(site.Pkg.Path) {
			continue
		}
		if len(site.Targets) == 0 {
			pp.Reportf(site.Stmt.Pos(), "goroutine target cannot be resolved; launch a named function or literal so its exit path is checkable")
			continue
		}
		for _, target := range site.Targets {
			if d := diverges(pp, g, target, memo, make(map[*lint.Func]bool)); d != nil {
				where := ""
				if d.fn != target {
					where = " (in " + d.fn.Name() + ")"
				}
				pp.Reportf(site.Stmt.Pos(), "goroutine may never exit: %s at %s%s; give it a ctx/done escape, close the channel, or bound the loop", d.what, pp.Position(d.pos), where)
			}
		}
	}
}

// divergence describes one escape-free construct.
type divergence struct {
	fn   *lint.Func
	pos  token.Pos
	what string
}

// diverges reports an escape-free construct reachable from fn over
// static call edges (nil when none). Unresolvable callees are assumed
// terminating.
func diverges(pp *lint.ProgramPass, g *lint.CallGraph, fn *lint.Func, memo map[*lint.Func]*divergence, visiting map[*lint.Func]bool) *divergence {
	if fn == nil || fn.Body() == nil || visiting[fn] {
		return nil
	}
	if d, ok := memo[fn]; ok {
		return d
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	var found *divergence
	inspectSkippingLits(fn.Body(), func(n ast.Node) {
		if found != nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil && !hasEscape(n.Body, labelOf(fn, n)) {
				found = &divergence{fn: fn, pos: n.Pos(), what: "condition-less for loop with no break or return"}
			}
		case *ast.RangeStmt:
			t := fn.Pkg.Info.TypeOf(n.X)
			if t == nil {
				return
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return
			}
			if hasEscape(n.Body, labelOf(fn, n)) {
				return
			}
			obj := chanObject(fn.Pkg.Info, n.X)
			var closed chanClosedFact
			if obj == nil {
				found = &divergence{fn: fn, pos: n.Pos(), what: "range over a channel expression whose close site cannot be tracked"}
			} else if !pp.Facts.ImportObjectFact(obj, &closed) {
				found = &divergence{fn: fn, pos: n.Pos(), what: "range over channel " + obj.Name() + " that nothing in the program closes"}
			}
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				found = &divergence{fn: fn, pos: n.Pos(), what: "empty select{}"}
			}
		}
	})
	if found == nil {
		// Transitive: anything this function statically calls (including
		// deferred calls and immediately-invoked literals) diverging
		// strands the goroutine too.
		for _, e := range g.Callees(fn) {
			if e.Kind == lint.CallGo {
				continue // a nested launch is its own go site
			}
			if d := diverges(pp, g, e.Callee, memo, visiting); d != nil {
				found = d
				break
			}
		}
	}
	memo[fn] = found
	return found
}

// labelOf returns the label attached to stmt in fn's body, if any, so
// `break label` counts as an escape of the labeled loop.
func labelOf(fn *lint.Func, stmt ast.Stmt) *ast.Ident {
	var label *ast.Ident
	inspectSkippingLits(fn.Body(), func(n ast.Node) {
		if ls, ok := n.(*ast.LabeledStmt); ok && ls.Stmt == stmt {
			label = ls.Label
		}
	})
	return label
}

// hasEscape reports whether body contains a return, a goto, or a break
// that exits the enclosing loop: an unlabeled break not captured by a
// nested for/range/switch/select (when label is nil), or a break naming
// the loop's label.
func hasEscape(body *ast.BlockStmt, label *ast.Ident) bool {
	found := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakCaptured bool) {
		if n == nil || found {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if found || m == nil {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt, *ast.BranchStmt:
				if br, ok := m.(*ast.BranchStmt); ok {
					switch {
					case br.Tok == token.GOTO:
						found = true
					case br.Tok != token.BREAK:
					case br.Label != nil:
						if label != nil && br.Label.Name == label.Name {
							found = true
						}
					case !breakCaptured:
						found = true
					}
				} else {
					found = true
				}
				return false
			case *ast.ForStmt:
				if m.Init != nil {
					walk(m.Init, breakCaptured)
				}
				walk(m.Body, true)
				return false
			case *ast.RangeStmt:
				walk(m.Body, true)
				return false
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// An unlabeled break inside binds to the switch/select,
				// not our loop — but returns still escape.
				switch sw := m.(type) {
				case *ast.SwitchStmt:
					walk(sw.Body, true)
				case *ast.TypeSwitchStmt:
					walk(sw.Body, true)
				case *ast.SelectStmt:
					walk(sw.Body, true)
				}
				return false
			}
			return true
		})
	}
	walk(body, false)
	return found
}
