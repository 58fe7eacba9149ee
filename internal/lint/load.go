package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Loader parses and type-checks module packages with the standard
// library alone. Module-local imports are resolved recursively from
// source under the module root; every other import is a standard-library
// package, read from the compiler's export data by one go/importer "gc"
// importer for the whole run (stdExport names the files). No
// golang.org/x/tools.
//
// Each module package is parsed and type-checked once, from its non-test
// files, and the one result serves every use: the analysis unit Load
// returns and the package every importer sees are the same objects. The
// one importer reads each standard-library package once, so every
// package sees the same stdlib objects too, which types.Identical and
// types.Implements rely on across packages.
type Loader struct {
	Fset *token.FileSet
	// Module is the module path from go.mod ("repro").
	Module string
	// Root is the absolute module root directory.
	Root string

	std types.Importer
	// pkgs memoizes module packages by import path.
	pkgs map[string]*loaded
	// loading guards against import cycles during recursive loads.
	loading map[string]bool
}

type loaded struct {
	pkg *Package
	err error
}

// Package is one type-checked module package: its non-test files and
// the full type information the analyzers read.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the absolute directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// stdExport maps every standard-library import path to the file holding
// its export data, from one `go list -export std` per process. It covers
// all of std, not only the module's imports, because a golden fixture
// may import a package the module never does. On a cold build cache the
// go command compiles the standard library first.
var stdExport = sync.OnceValues(func() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}} {{.Export}}", "std").Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, strings.TrimSpace(string(exit.Stderr)))
		}
		return nil, fmt.Errorf("lint: go list -export std: %w", err)
	}
	files := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			files[path] = file
		}
	}
	return files, nil
})

// NewLoader creates a Loader rooted at the module containing dir,
// reading the module path from go.mod. It fails when the go command
// cannot list the standard library's export data.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	exports, err := stdExport()
	if err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: %s is neither in module %s nor in the standard library", path, module)
		}
		return os.Open(file)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Module:  module,
		Root:    root,
		std:     importer.ForCompiler(fset, "gc", lookup),
		pkgs:    make(map[string]*loaded),
		loading: make(map[string]bool),
	}, nil
}

// Dirs lists every package directory under the module root, sorted.
// Directories named testdata, hidden directories, and directories
// without non-test Go files are skipped, mirroring the go tool's ./...
func (l *Loader) Dirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && isNonTestGoFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// ImportPath maps a directory under the module root to its import path.
func (l *Loader) ImportPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// Load returns the package in dir, type-checked from its non-test
// files. A package already loaded, as an import of another or by an
// earlier Load, is returned as is.
func (l *Loader) Load(dir string) (*Package, error) {
	path, err := l.ImportPath(dir)
	if err != nil {
		return nil, err
	}
	return l.loadLocal(path)
}

// LoadDirAs type-checks the package in dir under an explicit import
// path, without consulting or filling the memo. The golden-test harness
// uses it to check testdata packages as if they lived at real module
// paths, exercising path-scoped analyzers.
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Import implements types.Importer: module-local paths load recursively
// from source; "unsafe" is the magic package; the rest is stdlib.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// loadLocal type-checks the module package at path once, memoized and
// cycle-checked.
func (l *Loader) loadLocal(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, p.err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module)))
	pkg, err := l.LoadDirAs(dir, path)
	l.pkgs[path] = &loaded{pkg: pkg, err: err}
	return pkg, err
}

// parseDir parses dir's non-test Go files with comments.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isNonTestGoFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if len(files) > 0 && f.Name.Name != files[0].Name.Name {
			return nil, fmt.Errorf("lint: %s: mixed packages %s and %s", dir, files[0].Name.Name, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, nil
}

func isNonTestGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}
