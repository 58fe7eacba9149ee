// Command kpart is the reproduction's command-line tool. Its first
// argument names a subcommand, one file each (run.go, scale.go, ...);
// `kpart` alone lists them and `kpart <subcommand> -h` lists its flags.
//
//	kpart run -n 24 -k 4 [-seed 1] [-v] [-trace run.jsonl]   # one simulation
//	kpart experiments -fig all [-quick]                      # the paper's Figures 3–6
//	kpart verify -kmax 5 -nmax 10                            # Theorem 1, exhaustively
//	kpart serve -addr :8080                                  # the HTTP trial service
//
// The run plumbing the subcommands share lives in plumbing.go. Exit
// status: 0 success; 1 any other failure, or a negative verdict (run not
// converged, verification failed, regression found, budget exceeded); 2
// arguments rejected (missing or unknown subcommand, flag parse error, a
// flag value refused before any work starts); 130 interrupted by
// SIGINT/SIGTERM, after the journal is closed and metrics are flushed.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
)

// A command is one kpart subcommand.
type command struct {
	name, summary string
	run           func(ctx context.Context, args []string) error
	// interruptible subcommands see the first SIGINT/SIGTERM as ctx
	// cancellation and wind down; the others die on it the default way.
	interruptible bool
}

var commands = []command{
	{"run", "one simulation: interactions to stability, final groups", runCmd, false},
	{"scale", "large-n sweeps on the count engines, and scenario runs", scaleCmd, true},
	{"experiments", "regenerate the evaluation figures as CSV and charts", experimentsCmd, true},
	{"compare", "protocol-comparison and scheduler ablations", compareCmd, false},
	{"exact", "exact expected stabilization times from the Markov chain", exactCmd, false},
	{"verify", "model-check Theorem 1 for small populations", verifyCmd, false},
	{"trace", "replay and analyze a `kpart run -trace` file", traceCmd, false},
	{"predict", "the analytical twin's answer for (n, k)", predictCmd, false},
	{"spans", "render span JSONL exports", spansCmd, false},
	{"pp", "run a protocol written in the text DSL", ppCmd, false},
	{"serve", "the HTTP trial service", serveCmd, true},
	{"bench", "the simulation benchmark suite (BENCH_kpart.json)", benchCmd, true},
	{"bench-diff", "the benchmark regression gate", benchDiffCmd, false},
	{"twin-check", "the twin's accuracy gate (TWIN_baseline.json)", twinCheckCmd, false},
}

func main() {
	os.Exit(kpart(os.Args[1:]))
}

// kpart dispatches args to a subcommand and returns the exit status.
func kpart(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	for _, c := range commands {
		if c.name == args[0] {
			prog = "kpart " + c.name
			ctx, stop := signalContext(c.interruptible)
			defer stop()
			return exitCode(c.run(ctx, args[1:]))
		}
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return 0
	}
	fmt.Fprintf(os.Stderr, "kpart: unknown subcommand %q\n", args[0])
	usage(os.Stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: kpart <subcommand> [flags] [args]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun `kpart <subcommand> -h` for its flags.")
}
