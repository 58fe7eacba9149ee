package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// AtomicField bans the package-level functions of sync/atomic
// (atomic.AddUint64, atomic.LoadInt64, ...) and allows its typed values
// (atomic.Uint64, atomic.Int64, atomic.Pointer, ...). A variable updated
// through the functions can still be read or written plainly, and that
// one plain access is a data race the race detector only catches if a
// test happens to interleave it. A typed atomic has no plain access, so
// the mixed access cannot be written at all, in any package.
var AtomicField = &lint.Analyzer{
	Name: "atomicfield",
	Doc:  "use sync/atomic's typed values (atomic.Int64, ...), not its functions, so no variable mixes atomic and plain access",
	Run:  runAtomicField,
}

// runAtomicField reports every reference to a sync/atomic function, a
// call or a function value alike. Methods of the typed atomics have a
// receiver and pass.
func runAtomicField(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(id.Pos(), "atomic.%s works on a plain variable that other code can read or write plainly; use a typed atomic (atomic.Int64, atomic.Uint64, ...) instead", fn.Name())
			return true
		})
	}
}
