package lint

import (
	"strings"
	"testing"
)

// The loader type-checks each package once, from its non-test files:
// p's in-package test does not type-check and p has an external test
// package, yet both loads succeed without a test file, and the package
// q imports is the one Load returns for p, though q loaded it first.
func TestLoadChecksNonTestFilesOnce(t *testing.T) {
	_, pkgs := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

// N is what q uses.
func N() int { return 1 }
`,
		"p/p_test.go": `package p

func broken() int { return undefined }
`,
		"p/x_test.go": `package p_test

import "example.com/m/p"

var _ = p.N()
`,
		"q/q.go": `package q

import "example.com/m/p"

// M calls into p.
func M() int { return p.N() }
`,
	}, "q", "p")
	q, p := pkgs[0], pkgs[1]
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if name := pkg.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: loaded test file %s", pkg.Path, name)
			}
		}
	}
	if len(q.Pkg.Imports()) != 1 || q.Pkg.Imports()[0] != p.Pkg {
		t.Fatalf("q imports %v, want Load(p).Pkg %p", q.Pkg.Imports(), p.Pkg)
	}
}
