// Package lint is a zero-dependency static-analysis framework for this
// repository, built on stdlib go/parser, go/ast, and go/types only.
//
// The repo's reproduction claims (Lemma 1 conservation, Theorem 1
// stabilization counts, the Section 5 curves) rest on bit-for-bit
// reproducible runs. The runtime guards (race pass, fuzz targets,
// differential tests) catch nondeterminism after the fact; this package
// is the compile-time layer that stops it from being written at all.
// cmd/kpart-lint drives the analyzers in analyzers/ over the module and
// is wired into `make check` as `make lint`.
//
// The moving parts:
//
//   - Loader (load.go) discovers, parses, and type-checks module
//     packages using only go/parser and go/types, with the stdlib read
//     from the go command's export data through one go/importer "gc"
//     importer. An analysis unit is a package's non-test files,
//     type-checked once and shared with every package that imports it;
//     test files are never loaded. Every package sees the same objects,
//     and the whole-program layer identifies functions, fields and
//     types by them.
//   - Analyzer (this file) is one named check with an optional
//     per-package Run pass and an optional whole-program RunProgram
//     pass over the call graph (callgraph.go) and the facts its Run
//     passes exported (facts.go).
//   - Suppressions (suppress.go): a finding is silenced by a
//     `//lint:allow <analyzer> -- reason` comment on the offending line
//     or the line above it. The reason is mandatory, unknown analyzer
//     names are themselves diagnostics, and unused suppressions are
//     reported, so the suppression inventory can never rot.
//   - Run (run.go) orchestrates passes over loaded packages and returns
//     position-sorted diagnostics.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	// Analyzer is the name of the check that produced the finding (or
	// the reserved name "suppress" for suppression-hygiene findings).
	Analyzer string
	Pos      token.Position
	Message  string

	// scopeLine, when nonzero, is the line of the enclosing function
	// declaration in Pos.Filename. Interprocedural findings (an
	// unbounded loop three calls away from the handler, a field access
	// on some path) can be suppressed by a //lint:allow directive on
	// that line as well as on the finding's own line — the framework
	// fills it in for analyzers marked Interprocedural.
	scopeLine int
}

// String renders the finding in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is a single named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// comments. It must be a single lowercase word and must not be the
	// reserved name "suppress".
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Applies reports whether the analyzer runs on the package with the
	// given import path. nil means every package.
	Applies func(pkgPath string) bool
	// Run, if non-nil, inspects one type-checked package and reports
	// findings via pass.Reportf. It may export facts to pass.Facts.
	Run func(pass *Pass)
	// RunProgram, if non-nil, runs once after every Run pass with the
	// whole-program view: the CHA call graph over every loaded package
	// and the analyzer's fact store (facts exported by Run passes). It is
	// for invariants no single package can decide, such as a loop that
	// matters only because a request handler three calls away reaches
	// it. Setting it makes the runner build Program (callgraph.go).
	RunProgram func(pp *ProgramPass)
	// Interprocedural marks analyzers whose findings implicate whole
	// call paths rather than single lines. Their diagnostics accept
	// //lint:allow on the enclosing function's declaration line in
	// addition to the usual same-line / line-above placements, because
	// the offending line alone often cannot explain the finding.
	Interprocedural bool
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path ("repro/internal/sim").
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the analyzer's cross-pass fact store: Run passes export
	// facts about objects here; the RunProgram pass imports them. Never
	// shared between analyzers.
	Facts *FactStore

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves a token.Pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Program is the whole-program view handed to RunProgram passes: the
// CHA call graph over every loaded package (each Func carries its
// Package). It is built once per Run invocation (only when some
// analyzer asks for it) and shared read-only by all RunProgram passes.
type Program struct {
	Fset  *token.FileSet
	Graph *CallGraph
}

// ProgramPass carries one analyzer's whole-program pass.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program
	// Facts is the same store the analyzer's Run passes populated.
	Facts *FactStore

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Program.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves a token.Pos against the program's file set.
func (p *ProgramPass) Position(pos token.Pos) token.Position {
	return p.Program.Fset.Position(pos)
}

// ErrorType is the universe error type, for signature checks.
var ErrorType = types.Universe.Lookup("error").Type()

// CalleeFunc resolves the *types.Func a call expression invokes, looking
// through parentheses and package-qualified or method selectors. It
// returns nil for calls to builtins, function-typed variables, and
// conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
