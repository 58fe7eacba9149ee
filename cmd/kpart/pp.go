package main

// kpart pp runs an arbitrary population protocol defined in the text
// format of internal/parse, making the toolkit usable beyond the
// built-in protocols:
//
//	kpart pp -f protocol.pp -n 100 [-seed 1] [-max 1000000] [-init "x=60,y=40"]
//
// The run stops at quiescence (no productive pair exists) or at the
// interaction cap, and prints the final state counts, group sizes, and
// counters. -dump prints the parsed protocol back in canonical form and
// exits. Example protocol files live in cmd/kpart/testdata.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/parse"
	"repro/internal/population"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/sim"
)

func ppCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		file    = fs.String("f", "", "protocol definition file (required)")
		n       = fs.Int("n", 50, "population size")
		seed    = fs.Uint64("seed", 1, "scheduler seed")
		maxI    = fs.Uint64("max", 10_000_000, "interaction cap")
		initCfg = fs.String("init", "", "initial configuration as state=count pairs, e.g. \"x=30,y=20\" (default: all agents in the init state)")
		dump    = fs.Bool("dump", false, "print the parsed protocol in canonical form and exit")
		rules   = fs.Bool("rules", false, "print the transition rules and exit")
	)
	if err := parseFlags(fs, args, map[string]int{"n": 2}); err != nil {
		return err
	}
	if *file == "" {
		return usagef("usage: kpart pp -f protocol.pp [-n 50] [-init \"x=30,y=20\"]")
	}

	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	res, err := parse.Reader(f, strings.TrimSuffix(filepath.Base(*file), filepath.Ext(*file)))
	_ = f.Close() // read-only handle, fully consumed by parse.Reader
	if err != nil {
		return err
	}
	p := res.Protocol

	if *dump {
		fmt.Print(parse.Format(p))
		return nil
	}
	if *rules {
		fmt.Print(protocol.FormatRules(p, protocol.Rules(p)))
		return nil
	}

	var pop *population.Population
	if *initCfg == "" {
		pop = population.New(p, *n)
	} else {
		states, err := parseInit(*initCfg, res.Names)
		if err != nil {
			return usageError{err}
		}
		pop = population.FromStates(p, states)
	}

	fmt.Printf("protocol %s: %d states, %d groups, n=%d\n", p.Name(), p.NumStates(), p.NumGroups(), pop.N())
	r, err := sim.Run(pop, sched.NewRandom(*seed), sim.NewQuiescence(p), sim.Options{MaxInteractions: *maxI})
	if err != nil {
		return err
	}
	if r.Converged {
		fmt.Printf("quiesced after %d interactions (%d productive)\n", r.Interactions, r.Productive)
	} else {
		fmt.Printf("still live after %d interactions (cap reached)\n", r.Interactions)
	}
	fmt.Printf("final configuration: %s\n", pop)
	fmt.Printf("group sizes: %v\n", r.GroupSizes)
	return nil
}

// parseInit expands "x=30,y=20" into a state vector.
func parseInit(s string, names map[string]protocol.State) ([]protocol.State, error) {
	var out []protocol.State
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -init entry %q (want state=count)", part)
		}
		st, ok := names[kv[0]]
		if !ok {
			return nil, fmt.Errorf("unknown state %q in -init", kv[0])
		}
		c, err := strconv.Atoi(kv[1])
		if err != nil || c < 0 {
			return nil, fmt.Errorf("bad count %q in -init", kv[1])
		}
		for i := 0; i < c; i++ {
			out = append(out, st)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("-init yields %d agents; need >= 2", len(out))
	}
	return out, nil
}
