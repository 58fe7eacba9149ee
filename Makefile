# Tier-1 verification plus the slower guards. `make check` is what CI
# (and ROADMAP.md's tier-1 line) runs; the individual targets exist so a
# hot loop can run just the piece it touched.

GO ?= go

.PHONY: check build vet fmt-check lint lint-sarif test race perfbench fuzz-smoke bench bench-json serve-smoke bench-diff bench-diff-report twin-check twin-check-report

check: build vet fmt-check lint test race perfbench bench-diff-report twin-check-report

build:
	$(GO) build ./...

# -tests=true is vet's default but is pinned explicitly: the test files
# carry the statistical soaks and differential harnesses this repo's
# claims lean on, and a future "speed up vet" edit must not silently
# drop them from analysis. The high-value analyzers for this codebase —
# copylocks (Registry/Journal hold mutexes and must not be copied) and
# unreachable — are already in vet's default set, so no -vettool or
# flag surgery is needed beyond this pin.
vet:
	$(GO) vet -tests=true ./...

# Enforced formatting: gofmt over the whole tree (testdata included —
# the golden lint packages are real parsed Go and drift there is drift).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repo's own static-analysis gate over the non-test files of the
# whole module (it takes no package patterns): the per-package analyzers
# (determinism, rngdiscipline, maporder, atomicfield, errclose,
# docpresence) plus the interprocedural suite built on the
# whole-program call graph — ctxflow (reachable unbounded work must poll
# a context), lockguard (`// guarded by <mu>` field accesses), goroutinelife
# (every go statement needs a provable exit path). See
# internal/lint/analyzers and DESIGN.md §9. Exits non-zero on any
# finding; suppressions require `//lint:allow <analyzer> -- reason`.
lint:
	$(GO) run ./cmd/kpart-lint

# The same findings as SARIF 2.1.0 (lint.sarif) for editors and
# code-scanning upload; exit status matches `lint`.
lint-sarif:
	$(GO) run ./cmd/kpart-lint -sarif > lint.sarif

test:
	$(GO) test ./...

# Race pass over the concurrency-bearing packages: the obs metrics core
# (atomic counters shared across workers), the parallel trial harness
# (whose journal is appended from every worker), the engines the trials
# drive (countsim includes the batched engine and its seed-stability
# trajectory test; rng the samplers it draws from),
# and the HTTP serving layer (worker pool + admission queue + shared
# LRU). internal/twin runs here because every /v1/predict request
# goroutine answers through the same rungs: they hold no state, and
# TestMeanFieldConcurrentPredict must catch any shared state that comes
# back. The scenario layer (topology, fairness meters, the weak
# adversary) is sequential by design but runs here too: its types are
# shared across harness workers, so the race detector exercises that
# sharing through the harness tests. -short skips the minutes-long
# statistical soaks (they run
# race-free under `test`); the concurrency surface is fully covered
# either way.
race:
	$(GO) test -race -short ./internal/obs ./internal/obs/span ./internal/harness \
		./internal/sim ./internal/countsim ./internal/rng \
		./internal/serve ./internal/topology ./internal/fairness ./internal/sched \
		./internal/twin

# perfbench/ is its own module (`replace repro => ../`), so the root
# `./...` patterns above never build it. Vet and test it here, so that a
# change to a name the benchmark uses fails `check` rather than the
# benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short exploratory pass over every fuzz target (the plain corpora run
# under `test`); a real campaign raises -fuzztime. Go minimizes each new
# interesting input for up to 60 s by default, longer than a 5 s pass:
# FuzzJournalLoad, whose inputs each write and reopen a file, ran 7
# inputs that way. -fuzzminimizetime=100x caps minimizing at 100 runs
# per input; a failing input is still written, only shrunk less.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=5s -fuzzminimizetime=100x ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzSuppression -fuzztime=5s -fuzzminimizetime=100x ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzReadJSONL -fuzztime=5s -fuzzminimizetime=100x ./internal/obs/span
	$(GO) test -run='^$$' -fuzz=FuzzBatchApply -fuzztime=5s -fuzzminimizetime=100x ./internal/countsim
	$(GO) test -run='^$$' -fuzz=FuzzGuardedBy -fuzztime=5s -fuzzminimizetime=100x ./internal/lint/analyzers
	$(GO) test -run='^$$' -fuzz=FuzzTrialRequest -fuzztime=5s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzJournalLoad -fuzztime=5s -fuzzminimizetime=100x ./internal/harness

# The Go benchmarks: kpart bench's suite and engine loop (cmd/kpart's
# BenchmarkSuite and BenchmarkEngineThroughput), the A1–A3 ablations
# at the root, the count engines' per-step costs (internal/countsim:
# BenchmarkFig6Step times a count step against a batch fallback step at
# n = 960, k = 8; BenchmarkCountStep a count step at n = 961), and the
# twin's cold answer (internal/twin: BenchmarkColdPredict answers a
# serve-mix-shaped grid of 16 questions, each on a fresh MeanField).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./cmd/kpart ./internal/countsim ./internal/twin

# Machine-readable perf trajectory; compare BENCH_kpart.json across PRs.
bench-json:
	$(GO) run ./cmd/kpart bench -out BENCH_kpart.json

# End-to-end liveness check of the serving layer: boots a loopback
# `kpart serve`, round-trips a trial, proves the cache hit is
# byte-identical, streams a sweep, and shuts down cleanly.
serve-smoke:
	$(GO) run ./cmd/kpart serve -smoke

# Regression gate: run the benchmark suite fresh and diff the document
# against the committed BENCH_kpart.json, point by point
# (interactions_per_sec gates at a 20% drop, wall_ns_* at a 75% rise;
# cmd/kpart/benchdiff.go holds the policy). The suite includes the
# batched-engine points, so a sampler regression that slows the n=10⁸
# headline shows up here. `bench-diff` fails the build on a regression;
# `bench-diff-report` (the `check` flavor) prints the same comparison
# without failing, so tier-1 stays green on noisy hardware.
BENCH_DIFF_FLAGS ?=
bench-diff:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/kpart" ./cmd/kpart && \
	"$$tmp/kpart" bench -out "$$tmp/BENCH_kpart.json" >/dev/null && \
	"$$tmp/kpart" bench-diff $(BENCH_DIFF_FLAGS) BENCH_kpart.json "$$tmp/BENCH_kpart.json"

bench-diff-report:
	@$(MAKE) --no-print-directory bench-diff BENCH_DIFF_FLAGS=-report-only

# Accuracy gate for the analytical twin: solve both surrogate rungs live
# and hold them to their documented error budgets (twin.RelErrExact /
# twin.RelErrFluid) against TWIN_baseline.json — exact references are
# recomputed from internal/markov at gate time, simulation references
# replay from the committed summaries, so the gate costs well under a
# second. `twin-check` fails the build on a budget violation;
# `twin-check-report` (the `check` flavor) prints the same comparison
# without failing. After a legitimate trial-pipeline change, regenerate
# the sim side with `go run ./cmd/kpart twin-check -write` and commit
# the diff.
TWIN_CHECK_FLAGS ?=
twin-check:
	$(GO) run ./cmd/kpart twin-check $(TWIN_CHECK_FLAGS)

twin-check-report:
	@$(MAKE) --no-print-directory twin-check TWIN_CHECK_FLAGS=-report-only
