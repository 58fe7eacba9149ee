// kpart-lint is the repo's static-analysis gate: it runs the
// internal/lint analyzer suite (stdlib go/ast + go/types only, no
// external tooling) over the module and exits non-zero on any finding.
// `make lint` runs it as part of `make check`. The suite spans
// per-package checks (determinism, rngdiscipline, maporder,
// atomicfield, errclose, tableclosure, docpresence) and the
// interprocedural checks built on the whole-program call graph and fact
// store (ctxflow, lockguard, goroutinelife) — see DESIGN.md §9 for how
// those are constructed.
//
// Usage:
//
//	kpart-lint [-json] [-sarif] [-list] [patterns ...]
//
// Patterns default to ./... (every package under the module root).
// -sarif emits a SARIF 2.1.0 log for code-scanning consumers (`make
// lint-sarif` writes it to lint.sarif). Suppress a finding with
// `//lint:allow <analyzer> -- <reason>` on the offending line or the
// line above — or, for the interprocedural analyzers, on the enclosing
// function declaration; the reason is mandatory and unused or
// misspelled suppressions are themselves findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 log instead of text (exit status unchanged)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kpart-lint [-json] [-sarif] [-list] [patterns ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	seen := make(map[string]bool)
	var pkgs []*lint.Package
	for _, pat := range patterns {
		dirs, err := loader.Dirs(pat)
		if err != nil {
			fatal(err)
		}
		for _, dir := range dirs {
			if seen[dir] {
				continue
			}
			seen[dir] = true
			pkg, err := loader.Load(dir)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
			// The external test package (package foo_test), when one
			// exists, is a second compilation unit over the same
			// directory and gets the same analysis.
			xtest, err := loader.LoadExternalTest(dir)
			if err != nil {
				fatal(err)
			}
			if xtest != nil {
				pkgs = append(pkgs, xtest)
			}
		}
	}

	diags := lint.Run(pkgs, suite)
	switch {
	case *sarifOut:
		root, _ := os.Getwd()
		err = lint.WriteSARIF(os.Stdout, diags, suite, root)
	case *jsonOut:
		err = lint.WriteJSON(os.Stdout, diags)
	default:
		err = lint.WriteText(os.Stdout, diags)
	}
	if err != nil {
		fatal(err)
	}
	if len(diags) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "kpart-lint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kpart-lint: %v\n", err)
	os.Exit(2)
}
