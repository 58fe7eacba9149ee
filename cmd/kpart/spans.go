package main

// kpart spans renders span JSONL exports (kpart serve -trace-out, or any
// internal/obs/span collector sink) for humans: per-trace tree views
// with logical (interaction-count) and wall intervals, the critical path
// through each trace, and a per-name rollup attributing where the time
// went across all traces.
//
//	kpart spans [-trace ID] [-critical] [-rollup] [-no-wall] spans.jsonl
//	cat spans.jsonl | kpart spans
//
// The default output is the tree view. All views are deterministic:
// spans order by (trace, id), never by arrival, so two exports of the
// same deterministic pipeline render identically (modulo wall stamps,
// which -no-wall suppresses for byte-comparable output).

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs/span"
)

func spansCmd(_ context.Context, args []string) error {
	fs := newFlags()
	var (
		traceID  = fs.String("trace", "", "render only this trace ID")
		critical = fs.Bool("critical", false, "show each trace's critical path")
		rollup   = fs.Bool("rollup", false, "show the per-name cost rollup")
		noWall   = fs.Bool("no-wall", false, "suppress wall stamps (deterministic output)")
	)
	if err := parseFlags(fs, args, nil); err != nil {
		return err
	}

	var in io.Reader = os.Stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return usagef("usage: kpart spans [-trace ID] [-critical] [-rollup] [-no-wall] [spans.jsonl]")
	}

	spans, err := span.ReadJSONL(in)
	if err != nil {
		return err
	}
	if *traceID != "" {
		kept := spans[:0]
		for _, s := range spans {
			if s.Trace == *traceID {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if len(spans) == 0 {
		fmt.Println("no spans")
		return nil
	}

	w := bufio.NewWriter(os.Stdout)
	trees := span.BuildTrees(spans)
	if !*critical && !*rollup {
		for _, tree := range trees {
			fmt.Fprintf(w, "trace %s\n", tree.Trace)
			for _, root := range tree.Roots {
				renderNode(w, root, 1, *noWall)
			}
		}
	}
	if *critical {
		for _, tree := range trees {
			for _, root := range tree.Roots {
				path := span.CriticalPath(root)
				var names []string
				for _, n := range path {
					names = append(names, n.Span.Name)
				}
				fmt.Fprintf(w, "trace %s critical: %s (leaf cost %d)\n",
					tree.Trace, strings.Join(names, " -> "), span.Cost(path[len(path)-1].Span))
			}
		}
	}
	if *rollup {
		fmt.Fprintf(w, "%-24s %8s %14s %14s\n", "name", "count", "wall_us", "interactions")
		for _, st := range span.Rollup(spans) {
			fmt.Fprintf(w, "%-24s %8d %14d %14d\n", st.Name, st.Count, st.WallDurUS, st.SeqDelta)
		}
	}
	return w.Flush()
}

// renderNode prints one span line and recurses into its children.
func renderNode(w io.Writer, n *span.Node, depth int, noWall bool) {
	s := n.Span
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%s]", strings.Repeat("  ", depth), s.Name, s.ID)
	if s.EndSeq > s.StartSeq {
		fmt.Fprintf(&b, " seq=%d..%d (%d)", s.StartSeq, s.EndSeq, s.EndSeq-s.StartSeq)
	}
	if !noWall && s.WallDurUS > 0 {
		fmt.Fprintf(&b, " wall=%dus", s.WallDurUS)
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w, b.String())
	for _, c := range n.Children {
		renderNode(w, c, depth+1, noWall)
	}
}
