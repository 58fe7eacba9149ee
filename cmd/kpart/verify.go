package main

// kpart verify exhaustively verifies Theorem 1 for small populations by
// model checking the full configuration graph (see internal/explore):
// from every reachable configuration a stable configuration is
// reachable, and every stable configuration is a uniform partition. It
// also re-checks the Lemma 1 invariant on every reachable configuration.
//
//	kpart verify [-kmax 5] [-nmax 10] [-v] [-witness]
//
// A failed check is a negative verdict (exit 1).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
)

func verifyCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		kmax    = fs.Int("kmax", 5, "verify k = 2..kmax")
		nmax    = fs.Int("nmax", 10, "verify n = 3..nmax")
		verb    = fs.Bool("v", false, "print per-(n,k) graph sizes")
		witness = fs.Bool("witness", false, "print a shortest execution to stability for each (n,k)")
	)
	if err := parseFlags(fs, args, map[string]int{"kmax": 2, "nmax": 3}); err != nil {
		return err
	}

	if _, err := core.New(*kmax); err != nil {
		return usageError{err}
	}

	failed := false
	start := time.Now()
	checked := 0
	for k := 2; k <= *kmax; k++ {
		p := core.MustNew(k)
		for n := 3; n <= *nmax; n++ {
			g, err := explore.Build(p, n)
			if err != nil {
				return fmt.Errorf("n=%d k=%d: %w", n, k, err)
			}
			for i, node := range g.Nodes {
				if err := p.CheckInvariant(node.Counts); err != nil {
					fmt.Printf("FAIL n=%d k=%d: Lemma 1 violated at node %d (%s): %v\n",
						n, k, i, node.Format(p), err)
					failed = true
				}
			}
			rep, err := explore.Check(p, n, 1)
			if err != nil {
				return err
			}
			checked++
			status := "ok"
			if !rep.LiveFromAll {
				status = fmt.Sprintf("FAIL: %s cannot reach a stable configuration", rep.FirstNonLive.Format(p))
				failed = true
			} else if !rep.Uniform {
				status = fmt.Sprintf("FAIL: non-uniform stable configuration %s", rep.FirstNonUniform.Format(p))
				failed = true
			} else if rep.Stable == 0 {
				status = "FAIL: no stable configuration"
				failed = true
			}
			if *verb || status != "ok" {
				fmt.Printf("n=%-3d k=%-2d reachable=%-8d stable=%-6d %s\n",
					n, k, rep.Reachable, rep.Stable, status)
			}
			if *witness {
				if steps, ok := g.WitnessToStable(); ok {
					fmt.Printf("  witness (n=%d, k=%d, %d productive steps):\n", n, k, len(steps)-1)
					for _, s := range steps {
						fmt.Printf("    %s\n", s)
					}
				}
			}
		}
	}
	if failed {
		fmt.Printf("THEOREM 1 VERIFICATION FAILED (%d cases, %v)\n", checked, time.Since(start).Round(time.Millisecond))
		return errVerdict
	}
	fmt.Printf("Theorem 1 verified exhaustively for k=2..%d, n=3..%d (%d cases, %v)\n",
		*kmax, *nmax, checked, time.Since(start).Round(time.Millisecond))
	return nil
}
