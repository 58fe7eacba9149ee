package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// AtomicField enforces all-or-nothing atomicity per struct field: a
// field that is passed to any sync/atomic function anywhere in the
// program must be accessed through sync/atomic everywhere. A single
// plain read of an atomically written counter is a data race the race
// detector only catches if a test happens to interleave it — this check
// catches it at lint time, program-wide (its whole-program pass sees
// every package). Fields typed atomic.Uint64 etc. are safe by
// construction and never trigger it.
var AtomicField = &lint.Analyzer{
	Name:       "atomicfield",
	Doc:        "a struct field accessed via sync/atomic anywhere must be accessed atomically everywhere",
	RunProgram: runAtomicField,
}

// runAtomicField makes two passes over the program. The first collects
// the fields passed to sync/atomic (the `x.f` in atomic.AddUint64(&x.f,
// 1)); the second reports every other selection of those fields. Fields
// are keyed by the declaration position of the field identifier, which
// is stable across the loader's dependency and analysis type-checks of
// the same source.
func runAtomicField(pp *lint.ProgramPass) {
	type atomicUse struct {
		at   token.Position // one sync/atomic use, for the message
		name string
	}
	atomicSel := make(map[*ast.SelectorExpr]bool)
	uses := make(map[string]atomicUse) // by field key
	for _, pkg := range pp.Program.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := lint.CalleeFunc(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if fv := fieldVar(pkg.Info, sel); fv != nil {
						atomicSel[sel] = true
						k := pp.Position(fv.Pos()).String()
						if _, seen := uses[k]; !seen {
							uses[k] = atomicUse{
								at:   pp.Position(sel.Pos()),
								name: fv.Pkg().Name() + "." + structName(fv) + "." + fv.Name(),
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(uses) == 0 {
		return
	}

	// One report per source position, even when two analysis units
	// parse the same file.
	reported := make(map[string]bool)
	for _, pkg := range pp.Program.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || atomicSel[sel] {
					return true
				}
				fv := fieldVar(pkg.Info, sel)
				if fv == nil {
					return true
				}
				use, ok := uses[pp.Position(fv.Pos()).String()]
				if !ok {
					return true
				}
				pos := pp.Position(sel.Sel.Pos()).String()
				if reported[pos] {
					return true
				}
				reported[pos] = true
				pp.Reportf(sel.Sel.Pos(), "field %s is accessed with sync/atomic at %s but plainly here; every access must go through sync/atomic (or retype the field as an atomic.* value)",
					use.name, use.at)
				return true
			})
		}
	}
}

// fieldVar resolves sel to the struct field it selects, or nil.
func fieldVar(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// structName names the struct type declaring field f, best-effort, for
// diagnostics.
func structName(f *types.Var) string {
	if f.Pkg() == nil {
		return "?"
	}
	scope := f.Pkg().Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name()
			}
		}
	}
	return fmt.Sprintf("(struct at %v)", f.Pos())
}
