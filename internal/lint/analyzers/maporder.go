package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// writerCallNames are method/function names that emit output. Called
// inside a range over a map, they serialize the map's nondeterministic
// iteration order straight into a file, CSV row stream, or encoder.
var writerCallNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteRecord": true, "WriteAll": true, "Encode": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// MapOrder catches the classic nondeterministic-CSV bug: ranging over a
// map while building ordered output. Two shapes are flagged — writing
// to an encoder/writer from inside the loop, and appending to a slice
// that is never passed to a sort.* / slices.* call in the same
// function. The sanctioned fix (collect keys, sort, then emit) passes
// untouched because the append target reaches a sort call.
var MapOrder = &lint.Analyzer{
	Name: "maporder",
	Doc:  "no ordered output built directly from map iteration without an intervening sort",
	Run:  runMapOrder,
}

func runMapOrder(pass *lint.Pass) {
	for _, f := range pass.Files {
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(rs.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, enclosingBody(bodies, rs))
			return true
		})
	}
}

// enclosingBody returns the innermost function body containing n.
func enclosingBody(bodies []*ast.BlockStmt, n ast.Node) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= n.Pos() && n.End() <= b.End() {
			if best == nil || b.Pos() > best.Pos() {
				best = b
			}
		}
	}
	return best
}

func checkMapRange(pass *lint.Pass, rs *ast.RangeStmt, fn *ast.BlockStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				target := referencedObject(pass, call.Args[0])
				if target == nil || !sortedInFunc(pass, fn, target) {
					pass.Reportf(call.Pos(),
						"append while ranging over a map builds a nondeterministically ordered slice; sort it (sort.* / slices.*) before it becomes output")
				}
			}
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && writerCallNames[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"%s inside a range over a map emits output in nondeterministic iteration order; collect and sort keys first", sel.Sel.Name)
		}
		return true
	})
}

// referencedObject resolves the variable (or field) an append target
// names: `out` in append(out, ...) or `r.rows` in append(r.rows, ...).
func referencedObject(pass *lint.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.Info.Uses[e]
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return referencedObject(pass, e.X)
	}
	return nil
}

// sortedInFunc reports whether fn contains a call into package sort or
// slices that mentions target anywhere in its arguments — the
// "intervening sort" that makes map-fed accumulation deterministic.
func sortedInFunc(pass *lint.Pass, fn *ast.BlockStmt, target types.Object) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgName, ok := pass.Info.Uses[identOf(sel.X)].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pkgName.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.Info.Uses[id] == target {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
