package analyzers

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"repro/internal/lint"
)

// bannedTimeFuncs are the package time functions that read the wall
// clock or schedule against it. Any of them inside a deterministic
// package makes a run's outputs depend on when it ran.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Determinism bans wall-clock access in the engine packages. The sim
// and countsim results feed directly into the paper's Lemma 1 /
// Theorem 1 evidence; those numbers must be a pure function of (spec,
// seed). Timing belongs in the harness and cmd layers, which wrap the
// engines. Test files are never loaded, so benchmarks and soak tests
// may time themselves without touching what a run computes.
var Determinism = &lint.Analyzer{
	Name:    "determinism",
	Doc:     "no time.Now/Since/timers inside the deterministic engine packages",
	Applies: inDeterministicPkg,
	Run:     runDeterminism,
}

// edgeFiles name the sanctioned wall-clock edges inside otherwise
// deterministic packages, keyed by import path. In internal/serve the
// HTTP/executor edge (server.go, pool.go) is where wall-clock use is
// the job — latency histograms, Retry-After, trial wall times — while
// cache.go and spec.go compute content-addressed identities and are
// checked like an engine package. In internal/obs/span the entire
// identity model (IDs, sequence intervals, structure) is deterministic
// by contract and only wall.go may stamp wall durations onto spans.
// Growing any of these sets needs the same review as adding a timing
// call to an engine.
var edgeFiles = map[string]map[string]bool{
	modPath + "/internal/serve": {
		"server.go": true,
		"pool.go":   true,
	},
	modPath + "/internal/obs/span": {
		"wall.go": true,
	},
}

func runDeterminism(pass *lint.Pass) {
	for _, f := range pass.Files {
		if ef := edgeFiles[pass.Path]; ef != nil &&
			ef[filepath.Base(pass.Position(f.Pos()).Filename)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if bannedTimeFuncs[fn.Name()] {
				pass.Reportf(id.Pos(),
					"time.%s in deterministic package %s: results must be a pure function of (spec, seed); take timings in the harness layer",
					fn.Name(), pass.Path)
			}
			return true
		})
	}
}
