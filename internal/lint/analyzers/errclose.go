package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// flushCloseNames are the I/O completion methods whose error return
// carries the "did the bytes actually land" answer. For a buffered
// writer or an os.File, ignoring them means a full-looking run can
// leave a truncated CSV or journal behind.
var flushCloseNames = map[string]bool{
	"Close": true, "Flush": true, "Sync": true,
	"Write": true, "WriteString": true, "WriteAll": true,
}

// ErrClose flags a bare statement call to Close/Flush/Sync/Write/
// WriteString/WriteAll that returns an error, in the persistence
// packages and the cmd/ binaries. `_ = f.Close()` is the sanctioned
// explicit discard (visible in review), and deferred calls are exempt
// (the idiomatic read-path `defer f.Close()`); everything else must
// check.
var ErrClose = &lint.Analyzer{
	Name:    "errclose",
	Doc:     "no unchecked Close/Flush/Sync/Write errors in the persistence paths",
	Applies: inPersistencePkg,
	Run:     runErrClose,
}

func runErrClose(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !flushCloseNames[sel.Sel.Name] {
				return true
			}
			if !returnsError(pass, call) {
				return true
			}
			if isStringsBuilder(receiverType(pass, sel.X)) {
				// strings.Builder's Write* methods are documented to
				// always return a nil error; checking it is noise.
				return true
			}
			pass.Reportf(call.Pos(),
				"error from %s() is silently dropped; check it, or `_ = x.%s()` to discard explicitly",
				sel.Sel.Name, sel.Sel.Name)
			return true
		})
	}
}

// receiverType resolves the static type of a method receiver
// expression. Info.Types may omit bare identifiers (go/types records
// those only in Uses), so fall back to the identifier's object.
func receiverType(pass *lint.Pass, e ast.Expr) types.Type {
	e = ast.Unparen(e)
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func isStringsBuilder(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "strings" && obj.Name() == "Builder"
}

// returnsError reports whether any result of the call is exactly error.
func returnsError(pass *lint.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), lint.ErrorType) {
			return true
		}
	}
	return false
}
