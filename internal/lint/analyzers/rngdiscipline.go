package analyzers

import (
	"strconv"

	"repro/internal/lint"
)

// bannedRandImports are the randomness sources that bypass the repo's
// seeded, splittable generator.
var bannedRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// rngPkg is the one package allowed to touch the stdlib generators: it
// wraps them behind the deterministic, seed-derived streams everything
// else consumes.
const rngPkg = modPath + "/internal/rng"

// RNGDiscipline confines math/rand and crypto/rand to internal/rng.
// Every random draw in a trial must come from the seed-derived stream
// so that (seed, spec) replays bit-for-bit; a stray math/rand import is
// a second, unseeded entropy source. Test files are never loaded, so
// throwaway generators in tests, which don't feed results, pass.
var RNGDiscipline = &lint.Analyzer{
	Name: "rngdiscipline",
	Doc:  "math/rand and crypto/rand may be imported only by internal/rng and _test.go files",
	Run:  runRNGDiscipline,
}

func runRNGDiscipline(pass *lint.Pass) {
	if pass.Path == rngPkg {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !bannedRandImports[path] {
				continue
			}
			pass.Reportf(imp.Pos(),
				"import of %s outside %s: draw randomness from the seeded internal/rng streams so runs replay from (seed, spec)",
				path, rngPkg)
		}
	}
}
