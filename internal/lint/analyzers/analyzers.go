// Package analyzers holds the repo-specific checks kpart-lint runs.
// Each analyzer mechanizes one invariant the reproduction's claims rest
// on that go vet, the race pass and the tests do not already check; each
// has a golden testdata package with // want annotations under
// testdata/, run by linttest. The analyzers see the non-test files of
// every module package and nothing else. To add an analyzer: write the
// lint.Analyzer in its own file, add a testdata package, and list it in
// All() — the suppression machinery, driver, and Makefile pick it up
// from there.
package analyzers

import (
	"go/types"
	"strings"

	"repro/internal/lint"
)

// isNamed reports whether t is the named type name declared in the
// package with import path pkgPath.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// modPath is this module's path. The analyzer scopes are repo-specific
// by design (kpart-lint is this repo's linter, not a general tool), so
// the package lists live here as code, reviewable like any invariant.
const modPath = "repro"

// All returns the full analyzer suite in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		Determinism,
		RNGDiscipline,
		MapOrder,
		AtomicField,
		ErrClose,
		DocPresence,
		CtxFlow,
		LockGuard,
		GoroutineLife,
	}
}

// deterministicPkgs are the engine packages whose outputs must be a
// pure function of (spec, seed): the interaction-level simulator, the
// counting engine, the protocol definitions, population state, the
// state-space explorer, and the Markov solver. Wall-clock reads or
// stray RNGs here silently break bit-for-bit reproducibility.
func inDeterministicPkg(path string) bool {
	switch path {
	case modPath + "/internal/sim",
		modPath + "/internal/countsim",
		modPath + "/internal/population",
		modPath + "/internal/explore",
		modPath + "/internal/markov",
		// The serving layer's deterministic half: request/record
		// documents and the content-addressed cache. Its HTTP/executor
		// edge files are allowlisted in runDeterminism (edgeFiles).
		modPath + "/internal/serve",
		// The span tracer: trace/span IDs, structure, and sequence
		// intervals are replay identity and must never depend on when a
		// run happened. Only its wall.go edge file (edgeFiles) may stamp
		// wall durations.
		modPath + "/internal/obs/span",
		// The analytical twin: predictions are the /v1/predict cache's
		// content and the accuracy gate's subject — a pure function of the
		// spec with no edge files at all. Latency is measured by the
		// callers (serve's instrument wrapper, the CLIs).
		modPath + "/internal/twin":
		return true
	}
	// internal/protocol and every internal/protocols/... variant.
	return path == modPath+"/internal/protocol" ||
		strings.HasPrefix(path, modPath+"/internal/protocols/")
}

// persistencePkgs are the paths that write experiment artifacts (CSV,
// JSON docs, journals, traces) — the places where a swallowed
// Close/Flush error turns into a silently truncated result file.
func inPersistencePkg(path string) bool {
	switch path {
	case modPath + "/internal/harness",
		modPath + "/internal/trace":
		return true
	}
	return strings.HasPrefix(path, modPath+"/cmd/")
}
