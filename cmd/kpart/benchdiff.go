package main

// kpart bench-diff is the benchmark regression gate: it compares a fresh
// BENCH_kpart.json with the committed baseline, point by point, and fails
// (exit 1) when a gated metric worsened past its bound (see gates and
// DESIGN.md §7). Every other number is reported and never gates; neither
// do improvements, zero baselines, or numbers present in one document
// only. -report-only (used by `make check`) prints the comparison without
// failing, so the gate is informative on noisy hardware.
//
//	kpart bench-diff [-report-only] [-v] baseline.json current.json

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// A gate bounds how far a metric may worsen, as a fraction of its
// baseline, in the direction its name says is worse.
type gate struct {
	direction string // "higher-better" or "lower-better"; "" reports only
	bound     float64
}

// gates holds the gated point fields. Throughput gates at 20%; wall times,
// far noisier on shared hardware, at 75%.
var gates = map[string]gate{
	"interactions_per_sec": {"higher-better", 0.20},
	"wall_ns_mean":         {"lower-better", 0.75},
	"wall_ns_median":       {"lower-better", 0.75},
	"wall_ns_p90":          {"lower-better", 0.75},
}

// A finding is the judgment on one number present in both documents.
type finding struct {
	path      string
	base, cur float64
	// delta is the signed relative change, (cur-base)/|base|; 0 when the
	// baseline is 0, which has no meaningful ratio and cannot gate.
	delta     float64
	gate      gate
	regressed bool
}

// numbers flattens d to its compared numbers by report path: "gomaxprocs"
// and "points[<name>].<field>", a point without a name keyed by its
// index. converged and frozen are absent when zero, as in the file.
func (d benchDoc) numbers() map[string]float64 {
	m := map[string]float64{"gomaxprocs": float64(d.GOMAXPROCS)}
	for i, p := range d.Points {
		key := p.Name
		if key == "" {
			key = strconv.Itoa(i)
		}
		at := "points[" + key + "]."
		m[at+"n"] = float64(p.N)
		m[at+"k"] = float64(p.K)
		m[at+"trials"] = float64(p.Trials)
		if p.Converged != 0 {
			m[at+"converged"] = float64(p.Converged)
		}
		if p.Frozen != 0 {
			m[at+"frozen"] = float64(p.Frozen)
		}
		m[at+"mean_interactions"] = p.MeanInteractions
		m[at+"wall_ns_mean"] = p.WallNSMean
		m[at+"wall_ns_median"] = p.WallNSMedian
		m[at+"wall_ns_p90"] = p.WallNSP90
		m[at+"interactions_per_sec"] = p.InteractionsPerSec
	}
	return m
}

// compareBench judges every number present in both documents, sorted by
// path.
func compareBench(base, cur benchDoc) []finding {
	b, c := base.numbers(), cur.numbers()
	paths := make([]string, 0, len(b))
	for p := range b {
		if _, ok := c[p]; ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	findings := make([]finding, 0, len(paths))
	for _, p := range paths {
		f := finding{path: p, base: b[p], cur: c[p], gate: gates[p[strings.LastIndexByte(p, '.')+1:]]}
		if f.base != 0 {
			f.delta = (f.cur - f.base) / math.Abs(f.base)
			switch f.gate.direction {
			case "higher-better":
				f.regressed = f.delta < -f.gate.bound
			case "lower-better":
				f.regressed = f.delta > f.gate.bound
			}
		}
		findings = append(findings, f)
	}
	return findings
}

// renderBench writes one line per gated number, and per reported-only one
// that moved by more than 20% (with verbose, every number), then a
// summary. It returns the number of regressions.
func renderBench(w io.Writer, findings []finding, verbose bool) int {
	shown, regressed := 0, 0
	for _, f := range findings {
		if f.regressed {
			regressed++
		}
		if !verbose && f.gate.direction == "" && math.Abs(f.delta) <= 0.20 {
			continue
		}
		shown++
		verdict := "ok"
		switch {
		case f.regressed:
			verdict = fmt.Sprintf("REGRESSED (>%g%% %s)", f.gate.bound*100, f.gate.direction)
		case f.gate.direction == "":
			verdict = "info"
		}
		fmt.Fprintf(w, "%-50s %14.4g -> %14.4g  %+7.1f%%  %s\n",
			f.path, f.base, f.cur, f.delta*100, verdict)
	}
	fmt.Fprintf(w, "%d metrics compared, %d shown, %d regressed\n", len(findings), shown, regressed)
	return regressed
}

// readBenchDoc decodes the benchmark document at path.
func readBenchDoc(path string) (doc benchDoc, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("parsing %s: %w", path, err)
	}
	return doc, nil
}

func benchDiffCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		reportOnly = fs.Bool("report-only", false, "print the comparison but always exit 0")
		verbose    = fs.Bool("v", false, "show every compared metric, not just gated/moved ones")
	)
	if err := parseFlags(fs, args, nil); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usagef("usage: kpart bench-diff [-report-only] [-v] baseline.json current.json")
	}
	base, err := readBenchDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readBenchDoc(fs.Arg(1))
	if err != nil {
		return err
	}

	fmt.Printf("bench-diff: %s -> %s\n", fs.Arg(0), fs.Arg(1))
	if reg := renderBench(os.Stdout, compareBench(base, cur), *verbose); reg > 0 {
		if *reportOnly {
			fmt.Printf("bench-diff: %d regression(s) found (report-only mode, not failing)\n", reg)
			return nil
		}
		return fmt.Errorf("%d regression(s) past threshold", reg)
	}
	return nil
}
