package analyzers

import (
	"go/ast"
	"strings"

	"repro/internal/lint"
)

// DocPresence requires a doc comment on every exported package-level
// symbol: funcs, types, consts, vars, and methods on
// exported types. The repo's packages double as the reproduction's
// documentation — an exported symbol without prose is API the next
// reader has to reverse-engineer. Grouped const/var declarations are
// covered by a doc comment on the group or on the individual spec (a
// trailing same-line comment counts); methods on unexported types are
// exempt (they usually exist to satisfy an interface, which carries the
// contract), and so are trailing same-line comments (they cannot carry
// a sentence). Suppress a deliberate omission with
// `//lint:allow docpresence -- <reason>`.
var DocPresence = &lint.Analyzer{
	Name:    "docpresence",
	Doc:     "exported package-level symbols need doc comments",
	Applies: inDocumentedPkg,
	Run:     runDocPresence,
}

// inDocumentedPkg scopes the check to the library packages; the cmd/
// binaries are package main (no importable API — their documentation
// contract is the package comment, which doccomment-style tools cover
// poorly for flag-driven binaries).
func inDocumentedPkg(path string) bool {
	return strings.HasPrefix(path, modPath+"/internal/")
}

func runDocPresence(pass *lint.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
	}
}

// hasDoc reports whether cg contains at least one line of prose. A
// comment group made up entirely of directives (//lint:allow, //go:...)
// positions like a doc comment in the AST but documents nothing.
func hasDoc(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		if !strings.HasPrefix(text, "lint:") && !strings.HasPrefix(text, "go:") {
			return true
		}
	}
	return false
}

func checkFuncDoc(pass *lint.Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() || hasDoc(d.Doc) {
		return
	}
	kind := "function"
	if d.Recv != nil {
		// Exported methods on unexported types are interface plumbing;
		// the interface documents the contract.
		recv := receiverTypeName(d.Recv)
		if recv == "" || !ast.IsExported(recv) {
			return
		}
		kind = "method"
	}
	pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
}

func checkGenDoc(pass *lint.Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !hasDoc(d.Doc) && !hasDoc(s.Doc) {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			// A group doc or a per-spec doc counts as documentation for
			// the spec's names; a trailing same-line comment does not
			// (godoc renders it, but it cannot carry a sentence).
			if hasDoc(d.Doc) || hasDoc(s.Doc) {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment", genKind(d), name.Name)
					break
				}
			}
		}
	}
}

// receiverTypeName unwraps a method receiver to its type's name,
// looking through pointers and type parameters.
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func genKind(d *ast.GenDecl) string {
	if d.Tok.String() == "const" {
		return "const"
	}
	return "var"
}
