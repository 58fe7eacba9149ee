package lint

import (
	"path/filepath"
	"slices"
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

// Dirs stops at a nested module, as the go tool's ./... does: a
// directory with its own go.mod, and everything under it, is another
// module's to lint.
func TestDirsSkipsNestedModules(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":           "module example.com/m\n\ngo 1.22\n",
		"m.go":             "package m\n",
		"p/p.go":           "package p\n",
		"bench/go.mod":     "module example.com/m/bench\n\ngo 1.22\n",
		"bench/bench.go":   "package main\n",
		"bench/sub/sub.go": "package sub\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{root, filepath.Join(root, "p")}
	if !slices.Equal(dirs, want) {
		t.Fatalf("Dirs() = %v, want %v", dirs, want)
	}
}
