// kpart-lint is the repo's static-analysis gate: it runs the
// internal/lint analyzer suite (stdlib go/ast + go/types only, no
// external tooling) over the non-test files of every package in the
// module that contains the working directory, and exits non-zero on
// any finding. `make lint` runs it as part of `make check`. The suite
// spans per-package checks (determinism, rngdiscipline, maporder,
// atomicfield, errclose, docpresence) and the interprocedural checks
// built on the whole-program call graph and fact store (ctxflow,
// lockguard, goroutinelife) — see DESIGN.md §9 for how those are
// constructed.
//
// Usage:
//
//	kpart-lint [-json] [-sarif] [-list]
//
// It takes no package patterns: the interprocedural analyzers are sound
// only over the whole program, so it always lints the whole module, and
// any positional argument exits 2. -sarif emits a SARIF 2.1.0 log for
// code-scanning consumers (`make lint-sarif` writes it to lint.sarif).
// Suppress a finding with `//lint:allow <analyzer> -- <reason>` on the
// offending line or the line above — or, for the interprocedural
// analyzers, on the enclosing function declaration; the reason is
// mandatory and unused or misspelled suppressions are themselves
// findings.
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
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kpart-lint [-json] [-sarif] [-list]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("takes no package patterns (got %q); it lints the whole module containing the working directory", flag.Args()))
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	dirs, err := loader.Dirs()
	if err != nil {
		fatal(err)
	}
	pkgs := make([]*lint.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags := lint.Run(pkgs, suite)
	switch {
	case *sarifOut:
		err = lint.WriteSARIF(os.Stdout, diags, suite, loader.Root)
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
