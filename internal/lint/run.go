package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
)

// Run drives every applicable analyzer over the loaded packages,
// applies //lint:allow suppression, and returns diagnostics sorted by
// position. The reserved "suppress" pseudo-analyzer contributes
// malformed-directive, unknown-name, and unused-suppression findings.
//
// Phases, in order: per-package Run passes (which may export facts),
// then RunProgram passes (whole-program hook over the call graph and
// fact store — the program is built once, only when some applicable
// analyzer asks for it).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	} else {
		fset = token.NewFileSet()
	}

	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	// An analyzer's fact store exists once it applies to some package.
	facts := make(map[string]*FactStore, len(analyzers))
	var sups []*Suppression

	for _, pkg := range pkgs {
		ps, pdiags := CollectSuppressions(pkg, known)
		sups = append(sups, ps...)
		diags = append(diags, pdiags...)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			if facts[a.Name] == nil {
				facts[a.Name] = NewFactStore(pkg.Fset)
			}
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Facts:    facts[a.Name],
				report:   report,
			})
		}
	}

	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil || facts[a.Name] == nil {
			continue // no whole-program pass, or applied to no package
		}
		if prog == nil {
			prog = &Program{Fset: fset, Graph: BuildCallGraph(fset, pkgs)}
		}
		a.RunProgram(&ProgramPass{
			Analyzer: a,
			Program:  prog,
			Facts:    facts[a.Name],
			report:   report,
		})
	}

	// Interprocedural findings gain a suppression scope at the enclosing
	// function's declaration line.
	interp := make(map[string]bool, len(analyzers))
	needScopes := false
	for _, a := range analyzers {
		if a.Interprocedural {
			interp[a.Name] = true
			needScopes = true
		}
	}
	if needScopes {
		scopes := buildFuncScopes(fset, pkgs)
		for i := range diags {
			if interp[diags[i].Analyzer] {
				diags[i].scopeLine = scopes.declLineFor(diags[i].Pos)
			}
		}
	}

	out := ApplySuppressions(diags, sups)
	SortDiagnostics(out)
	return out
}

// funcScopes maps filenames to function-declaration extents, for
// resolving a finding's enclosing declaration line.
type funcScopes map[string][]funcScope

type funcScope struct {
	startLine, endLine, declLine int
}

func buildFuncScopes(fset *token.FileSet, pkgs []*Package) funcScopes {
	scopes := make(funcScopes)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				scopes[start.Filename] = append(scopes[start.Filename], funcScope{
					startLine: start.Line,
					endLine:   end.Line,
					declLine:  start.Line,
				})
			}
		}
	}
	for name, ss := range scopes {
		sort.Slice(ss, func(i, j int) bool { return ss[i].startLine < ss[j].startLine })
		scopes[name] = ss
	}
	return scopes
}

// declLineFor returns the declaration line of the innermost function
// declaration containing pos, or 0 when pos is outside any.
func (s funcScopes) declLineFor(pos token.Position) int {
	best := 0
	for _, sc := range s[pos.Filename] {
		if sc.startLine > pos.Line {
			break
		}
		if pos.Line <= sc.endLine {
			best = sc.declLine // later (inner or equal) decls win
		}
	}
	return best
}

// SortDiagnostics orders by file, line, column, analyzer, message, so
// output is stable run to run (the linter holds itself to the same
// determinism bar it enforces).
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// sortedCopy returns the diagnostics in canonical order without
// mutating the caller's slice. The writers sort defensively so CI
// output stays diff-stable even if a caller assembles diagnostics from
// multiple Run invocations (or a RunProgram phase appended out of
// position order) without re-sorting.
func sortedCopy(ds []Diagnostic) []Diagnostic {
	out := append([]Diagnostic(nil), ds...)
	SortDiagnostics(out)
	return out
}

// WriteText prints diagnostics one per line as file:line:col: analyzer:
// message, in canonical (file, line, column, analyzer) order.
func WriteText(w io.Writer, ds []Diagnostic) error {
	for _, d := range sortedCopy(ds) {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonDiagnostic is the machine-readable form emitted by -json.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON emits diagnostics as a JSON array (always an array, "[]"
// when clean, so downstream tooling needs no special empty case), in
// canonical (file, line, column, analyzer) order.
func WriteJSON(w io.Writer, ds []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(ds))
	for _, d := range sortedCopy(ds) {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
