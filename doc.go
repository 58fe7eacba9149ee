// Package repro is a Go reproduction of "A Population Protocol for Uniform
// k-partition under Global Fairness" (Yasumi, Kitamura, Ooshita, Izumi,
// Inoue; IPDPS Workshops 2018 / IJNC 9(1), 2019).
//
// The implementation lives under internal/:
//
//   - internal/core       — the paper's protocol (Algorithm 1), its Lemma 1
//     invariant and stable-configuration signature
//   - internal/protocol   — the population protocol model (states, δ, f)
//   - internal/population — configurations and interactions
//   - internal/sched      — random / sweep / hostile / weak-adversary
//     schedulers
//   - internal/sim        — the simulation engine and stop conditions
//   - internal/explore    — exhaustive model checking of Theorem 1, on the
//     complete graph and on restricted topologies
//   - internal/topology   — restricted interaction graphs (ring, star,
//     grid, random regular) and group-freeze detection
//   - internal/fairness   — fairness metering of execution prefixes
//   - internal/protocols  — bipartition, repeated bipartition, the interval
//     baseline, R-generalized partition, classic protocols
//   - internal/harness    — the trial runner, the Figure 3–6 grid runner
//     and renderers, and the scenario model (topology × fairness ×
//     churn; see DESIGN.md §8)
//
// Binaries: cmd/kpart, one tool whose subcommands cover a single run
// (run), the figures (experiments), the model checker (verify), the
// ablations (compare), large-n sweeps and scenario runs (scale), the HTTP
// trial service (serve) and the regression-gated benchmark suites (bench,
// serve-bench, bench-diff, twin-check); and cmd/kpart-lint, the
// repo-specific static analysis. Runnable examples of the paper's
// motivating applications live in examples/, and `go test ./examples`
// runs them against their recorded output.
//
// The benchmarks in this package (bench_test.go) regenerate a
// representative point of every figure of the paper's evaluation; the full
// sweeps live in `kpart experiments`. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package repro
