// Package linttest is the golden harness for the analyzer suite, in
// the spirit of golang.org/x/tools' analysistest but on stdlib only.
// A testdata package annotates the lines where diagnostics are
// expected:
//
//	rand.Seed(1) // want `math/rand`
//
// Each backquoted (or double-quoted) string is a regexp that must match
// the message of one diagnostic reported on that line; diagnostics with
// no matching annotation, and annotations with no matching diagnostic,
// both fail the test. Because the harness runs the full pipeline —
// analyzers, then suppression — testdata can also pin down
// //lint:allow behavior (a suppressed line simply carries no want).
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe matches a `// want "re"` marker anywhere in a comment (so a
// //lint:allow directive can carry a trailing want for its own hygiene
// diagnostic); the payload is one or more quoted or backquoted regexps.
var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)$")

var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads the package rooted at dir under importPath (so
// path-scoped Applies functions see a realistic module path), runs
// analyzers through the full pipeline, and compares the diagnostics
// against the package's // want annotations.
func Run(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	loader, err := lint.NewLoader(abs)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	pkg, err := loader.LoadDirAs(abs, importPath)
	if err != nil {
		t.Fatalf("linttest: loading %s: %v", dir, err)
	}
	Check(t, pkg, lint.Run([]*lint.Package{pkg}, analyzers))
}

// expectation is the set of regexps wanted on one file:line.
type expectation struct {
	res  []*regexp.Regexp
	raw  []string
	hits []bool
}

// Check compares diagnostics against pkg's // want annotations; it is
// split from Run so driver-level tests can feed a pre-computed
// diagnostic list.
func Check(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		exp, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %v", d)
			continue
		}
		matched := false
		for i, re := range exp.res {
			if !exp.hits[i] && re.MatchString(d.Message) {
				exp.hits[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("diagnostic at %s does not match any want %v: %s", key, exp.raw, d.Message)
		}
	}
	for key, exp := range wants {
		for i, hit := range exp.hits {
			if !hit {
				t.Errorf("%s: want %q matched no diagnostic", key, exp.raw[i])
			}
		}
	}
}

func collectWants(t *testing.T, pkg *lint.Package) map[string]*expectation {
	t.Helper()
	wants := make(map[string]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				exp := wants[key]
				if exp == nil {
					exp = &expectation{}
					wants[key] = exp
				}
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					raw := unquoteWant(q)
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					exp.res = append(exp.res, re)
					exp.raw = append(exp.raw, raw)
					exp.hits = append(exp.hits, false)
				}
			}
		}
	}
	return wants
}

func unquoteWant(q string) string {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`")
	}
	q = strings.Trim(q, `"`)
	q = strings.ReplaceAll(q, `\"`, `"`)
	q = strings.ReplaceAll(q, `\\`, `\`)
	return q
}
