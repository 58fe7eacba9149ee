// Package twin is the analytical surrogate ladder for the uniform
// k-partition protocol: models that answer "how long until stability, and
// how long until each group completes?" without running a simulation.
//
// The ladder has two rungs, and every Prediction carries a dispersion
// estimate next to its point estimate, so error bars come with it:
//
//   - Rung 1 (Lumped, FidelityExact): an exactly lumped Markov chain over
//     the reduced vector (#initial, #initial', #m2..#m(k−1), #d1..#d(k−2),
//     #gk). By the Lemma 1 invariant every reachable configuration's
//     g-counts are a pure function of that vector, so the reduction loses
//     nothing — the reduced chain is isomorphic to the full configuration
//     chain, just without the redundant coordinates. The win over
//     internal/markov is the solver, not the state count: #gk is monotone
//     under the protocol, so hitting times solve level-by-level (block
//     back-substitution instead of whole-graph iteration), ALL ⌊n/k⌋
//     milestones come from one forward occupancy pass instead of one
//     solve each, and exact variances come from the same layered second-
//     moment pass. Each level of up to 800 states is factored once per
//     answer by a sparse LU in minimum-degree order (sparselu.go), and
//     every one of those passes reuses the factor; larger levels run
//     Gauss–Seidel. That makes exact milestone curves practical at
//     populations where internal/markov's per-milestone solves are not.
//     Its dispersion is that exact second moment.
//
//   - Rung 2 (MeanField, FidelityFluid): the finite-n mean-field drift of
//     the same reduced vector, integrated as an ODE with adaptive RK4,
//     plus an exact "endgame" sub-chain for the last few #gk levels where
//     integer effects dominate and the fluid limit is blind. A cold
//     answer takes milliseconds for n up to 10⁶ (BenchmarkColdPredict:
//     ~3 ms mean on serve-mix's question grid on a 2-vCPU host) and up
//     to about half a second at n = 10⁶, k = 8, almost all of it fluid
//     integration. Endgame chain shapes repeat across populations and
//     are cached (shapecache.go), so an answer whose shape is cached
//     skips the chain exploration and the symbolic factorization
//     (BenchmarkWarmPredict). Accuracy is a documented contract (see
//     RelErrBudget), enforced in CI by `make twin-check` against
//     recorded simulation means. Its dispersion is the fluid phase's
//     Kurtz 1/√n spread added in quadrature with the endgame's exact
//     variance.
//
// Neither rung keeps an answer between calls: each one integrates,
// fills and solves its own chain, and repeats are the caller's to cache
// (/v1/predict keeps an LRU of whole answers). What the mean-field rung
// shares is the package's cache of endgame shapes, which depend only on
// (k, n mod k, depth) and never change the answer; it is safe for
// concurrent use, so one value of either rung serves any number of
// goroutines.
//
// Auto picks the highest-fidelity rung whose cost fits DefaultStateBudget;
// `kpart exact` calls the lumped rung directly. CrossValidate* are the
// hooks the accuracy gate and the tests use to compare rungs against
// internal/markov and against trial data.
package twin
