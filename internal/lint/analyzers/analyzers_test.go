package analyzers_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
	"repro/internal/lint/linttest"
)

// The golden tests: each analyzer over its annotated testdata package,
// loaded under an import path that makes its Applies scope fire.

func TestDeterminismGolden(t *testing.T) {
	linttest.Run(t, "testdata/determinism", "repro/internal/sim", analyzers.Determinism)
}

func TestRNGDisciplineGolden(t *testing.T) {
	linttest.Run(t, "testdata/rngdiscipline", "repro/internal/foo", analyzers.RNGDiscipline)
}

// The batched count engine lives in internal/countsim, so its files are
// inside both analyzers' enforcement scopes: wall-clock reads and stray
// stdlib RNGs in batch code are lint errors, not style nits.
func TestDeterminismBatchEngineGolden(t *testing.T) {
	linttest.Run(t, "testdata/determinismbatch", "repro/internal/countsim", analyzers.Determinism)
}

func TestRNGDisciplineBatchEngineGolden(t *testing.T) {
	linttest.Run(t, "testdata/rngdisciplinebatch", "repro/internal/countsim", analyzers.RNGDiscipline)
}

func TestMapOrderGolden(t *testing.T) {
	linttest.Run(t, "testdata/maporder", "repro/internal/foo", analyzers.MapOrder)
}

func TestAtomicFieldGolden(t *testing.T) {
	linttest.Run(t, "testdata/atomicfield", "repro/internal/foo", analyzers.AtomicField)
}

func TestErrCloseGolden(t *testing.T) {
	linttest.Run(t, "testdata/errclose", "repro/internal/harness", analyzers.ErrClose)
}

func TestDocPresenceGolden(t *testing.T) {
	linttest.Run(t, "testdata/docpresence", "repro/internal/foo", analyzers.DocPresence)
}

// The doc-presence contract is for the library packages; cmd/ binaries
// are package main with no importable API.
func TestDocPresenceScopedToInternal(t *testing.T) {
	diags := loadAs(t, "testdata/docpresence", "repro/cmd/kpart-foo", analyzers.DocPresence)
	if len(diags) != 0 {
		t.Fatalf("docpresence fired outside internal/: %v", diags)
	}
}

func TestSuppressGolden(t *testing.T) {
	linttest.Run(t, "testdata/suppress", "repro/internal/harness", analyzers.All()...)
}

// loadAs type-checks a testdata dir under an arbitrary import path and
// runs the given analyzers raw (no want-comparison), for scope tests.
func loadAs(t *testing.T, dir, importPath string, as ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(abs)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDirAs(abs, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Run([]*lint.Package{pkg}, as)
}

// The same wall-clock calls outside the engine packages are legal:
// timing belongs to the harness layer.
func TestDeterminismScopedToEnginePackages(t *testing.T) {
	diags := loadAs(t, "testdata/determinism", "repro/internal/harness", analyzers.Determinism)
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its package scope: %v", diags)
	}
}

// internal/rng is the one sanctioned home for stdlib randomness.
func TestRNGDisciplineAllowsRngPackage(t *testing.T) {
	diags := loadAs(t, "testdata/rngdiscipline", "repro/internal/rng", analyzers.RNGDiscipline)
	if len(diags) != 0 {
		t.Fatalf("rngdiscipline fired inside repro/internal/rng: %v", diags)
	}
}

// The same batch-flavored wall-clock calls are legal in the harness
// layer, which wraps the engines and owns timing.
func TestDeterminismBatchScopedToEnginePackages(t *testing.T) {
	diags := loadAs(t, "testdata/determinismbatch", "repro/internal/harness", analyzers.Determinism)
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its package scope: %v", diags)
	}
}

// And the batch-flavored math/rand import is legal inside internal/rng
// itself — that is where the samplers wrap the stdlib.
func TestRNGDisciplineBatchAllowsRngPackage(t *testing.T) {
	diags := loadAs(t, "testdata/rngdisciplinebatch", "repro/internal/rng", analyzers.RNGDiscipline)
	if len(diags) != 0 {
		t.Fatalf("rngdiscipline fired inside repro/internal/rng: %v", diags)
	}
}

// Outside the persistence paths a dropped Close error is tolerated (the
// race/test layers own those packages' correctness stories).
func TestErrCloseScopedToPersistencePaths(t *testing.T) {
	diags := loadAs(t, "testdata/errclose", "repro/internal/sim", analyzers.ErrClose)
	if len(diags) != 0 {
		t.Fatalf("errclose fired outside the persistence paths: %v", diags)
	}
}

// internal/serve splits by file: the HTTP/executor edge (pool.go,
// server.go) may read the clock, the deterministic half may not.
func TestDeterminismServeEdgeSplit(t *testing.T) {
	linttest.Run(t, "testdata/determinismserve", "repro/internal/serve", analyzers.Determinism)
}

// The edge allowlist is keyed to the serve package: the same files
// under an engine path get no exemption, and under a harness-layer
// path no findings at all.
func TestDeterminismServeEdgeScopes(t *testing.T) {
	diags := loadAs(t, "testdata/determinismserve", "repro/internal/sim", analyzers.Determinism)
	if len(diags) != 5 {
		t.Fatalf("engine path must check every file (5 findings), got %v", diags)
	}
	diags = loadAs(t, "testdata/determinismserve", "repro/internal/harness", analyzers.Determinism)
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its package scope: %v", diags)
	}
}

// internal/obs/span splits by file the same way: wall.go is the one
// sanctioned wall-clock edge, everything else carries replay identity
// and is checked like an engine package.
func TestDeterminismSpanEdgeSplit(t *testing.T) {
	linttest.Run(t, "testdata/determinismspan", "repro/internal/obs/span", analyzers.Determinism)
}

// The wall.go exemption is keyed to the span package path: under an
// engine path every file is checked, and under a harness-layer path
// none are.
func TestDeterminismSpanEdgeScopes(t *testing.T) {
	diags := loadAs(t, "testdata/determinismspan", "repro/internal/sim", analyzers.Determinism)
	if len(diags) != 4 {
		t.Fatalf("engine path must check every file (4 findings), got %v", diags)
	}
	diags = loadAs(t, "testdata/determinismspan", "repro/internal/harness", analyzers.Determinism)
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its package scope: %v", diags)
	}
}

// internal/twin has no edge files: predictions are cache content and
// the accuracy gate's subject, so every file is checked like an engine
// package.
func TestDeterminismTwinGolden(t *testing.T) {
	linttest.Run(t, "testdata/determinismtwin", "repro/internal/twin", analyzers.Determinism)
}

// The twin scope is the package path, not the file set: the same
// sources are fully checked under an engine path and out of scope under
// a harness-layer path.
func TestDeterminismTwinScopes(t *testing.T) {
	diags := loadAs(t, "testdata/determinismtwin", "repro/internal/sim", analyzers.Determinism)
	if len(diags) != 3 {
		t.Fatalf("engine path must check every file (3 findings), got %v", diags)
	}
	diags = loadAs(t, "testdata/determinismtwin", "repro/internal/harness", analyzers.Determinism)
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside its package scope: %v", diags)
	}
}

// The twin's exported surface is the /v1/predict wire contract; its
// doc-presence coverage gets its own golden under the real import path.
func TestDocPresenceTwinGolden(t *testing.T) {
	linttest.Run(t, "testdata/docpresencetwin", "repro/internal/twin", analyzers.DocPresence)
}

// --- interprocedural analyzers ---------------------------------------------

func TestCtxFlowGolden(t *testing.T) {
	linttest.Run(t, "testdata/ctxflow", "repro/internal/harness", analyzers.CtxFlow)
}

// Outside the packages carrying the cancellation invariant (e.g.
// internal/rng's rejection samplers) the same loops are legal.
func TestCtxFlowScopedToInvariantPackages(t *testing.T) {
	for _, d := range loadAs(t, "testdata/ctxflow", "repro/internal/rng", analyzers.CtxFlow) {
		if d.Analyzer == analyzers.CtxFlow.Name {
			t.Fatalf("ctxflow fired outside its package scope: %v", d)
		}
	}
}

func TestLockGuardGolden(t *testing.T) {
	linttest.Run(t, "testdata/lockguard", "repro/internal/serve", analyzers.LockGuard)
}

// lockguard applies everywhere annotations appear — the same fixture
// under any module path reports the same findings (its scope is the
// annotation, not the package).
func TestLockGuardAppliesEverywhere(t *testing.T) {
	diags := loadAs(t, "testdata/lockguard", "repro/internal/rng", analyzers.LockGuard)
	if len(diags) == 0 {
		t.Fatal("lockguard should fire on annotated fields under any package path")
	}
}

// Annotation hygiene that cannot carry same-line want markers (the
// marker text would become part of the annotation): checked
// programmatically on a scratch package.
func TestLockGuardAnnotationHygiene(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("p/p.go", `package p

import "sync"

type s struct {
	mu sync.Mutex
	a  int // guarded by nosuch
	b  int // guarded by c.mu
	c  int // guarded by mu
}

// guarded by mu
func free() {}
`)
	dir := filepath.Join(root, "p")
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{analyzers.LockGuard})
	wantSubstrings := []string{
		"no sibling field nosuch",
		"field guards must name a sibling mutex field",
		"only methods can require a caller-held lock",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("want %d hygiene findings, got %v", len(wantSubstrings), diags)
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, sub)
		}
	}
}

func TestGoroutineLifeGolden(t *testing.T) {
	linttest.Run(t, "testdata/goroutinelife", "repro/internal/serve", analyzers.GoroutineLife)
}

// Goroutines outside the long-lived layers (serve/harness/obs) are not
// goroutinelife's business.
func TestGoroutineLifeScopedToLongLivedPackages(t *testing.T) {
	for _, d := range loadAs(t, "testdata/goroutinelife", "repro/internal/sim", analyzers.GoroutineLife) {
		if d.Analyzer == analyzers.GoroutineLife.Name {
			t.Fatalf("goroutinelife fired outside its package scope: %v", d)
		}
	}
}
