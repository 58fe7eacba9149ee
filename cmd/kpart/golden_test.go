package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A goldenCase is a fixed sequence of kpart invocations run in one fresh
// directory. Its record — each invocation's exit status and stdout, then
// the listed files — is compared with testdata/golden/<name>.txt.
type goldenCase struct {
	name string
	// inputs are copied into the run directory first, under their base
	// names; paths are relative to this package.
	inputs []string
	steps  [][]string
	files  []string
}

func argv(s string) []string { return strings.Fields(s) }

var goldenCases = []goldenCase{
	{name: "run", steps: [][]string{argv("run -n 24 -k 4 -seed 1")}},
	{name: "run-verbose", steps: [][]string{argv("run -n 24 -k 4 -seed 1 -v")}},
	{name: "run-rules", steps: [][]string{argv("run -n 24 -k 4 -seed 1 -rules")}},
	{name: "run-dot", steps: [][]string{argv("run -n 24 -k 4 -seed 1 -dot")}},
	{name: "run-metrics", steps: [][]string{argv("run -n 24 -k 4 -seed 1 -metrics m.jsonl")}},
	{name: "run-trace", steps: [][]string{
		argv("run -n 24 -k 4 -seed 1 -trace run.jsonl"),
		argv("trace -k 4 run.jsonl"),
	}, files: []string{"run.jsonl"}},
	{name: "run-capped", steps: [][]string{argv("run -n 960 -k 8 -max 1000")}},
	{name: "run-too-small", steps: [][]string{argv("run -n 2 -k 2")}},
	{name: "verify", steps: [][]string{argv("verify -kmax 3 -nmax 6 -v")}},
	{name: "exact", steps: [][]string{
		argv("exact -k 3 -nmax 6 -sim 50"),
		argv("exact -k 5 -nmax 14 -sim 0"),
	}},
	{name: "predict", steps: [][]string{
		argv("predict -n 960 -k 4 -milestones"),
		argv("predict -n 960 -k 4 -milestones -json"),
	}},
	{name: "compare", steps: [][]string{argv("compare -n 24 -k 4 -trials 4")},
		files: []string{"results/compare.csv", "results/scheduler.csv"}},
	{name: "experiments-fig3", steps: [][]string{argv("experiments -fig 3 -quick -trials 3")},
		files: []string{"results/fig3.csv", "results/fig3.json"}},
	// No n in [k+2, 7] for k = 6 and k = 8: their series stay, empty.
	{name: "experiments-fig3-empty-k", steps: [][]string{argv("experiments -fig 3 -nmax 7 -trials 1")},
		files: []string{"results/fig3.csv", "results/fig3.json"}},
	{name: "experiments-all", steps: [][]string{argv("experiments -fig all -quick -trials 2 -engine count")},
		files: []string{"results/fig3.csv", "results/fig4.csv", "results/fig4_k6.csv", "results/fig5.csv", "results/fig6.csv", "results/fig6.json"}},
	{name: "experiments-aux", steps: [][]string{
		argv("experiments -fig traj -trials 3 -metrics"),
		argv("experiments -fig scenarios -trials 2"),
		argv("experiments -fig churn -trials 2 -metrics"),
		argv("experiments -fig predict -quick -trials 2"),
	}, files: []string{"results/trajectory.csv", "results/scenarios.csv", "results/churn.csv", "results/predict.csv"}},
	{name: "experiments-unknown-fig", steps: [][]string{argv("experiments -fig 7")}},
	{name: "scale-count", steps: [][]string{argv("scale -n 2000 -k 4 -trials 3")}},
	{name: "scale-batch", steps: [][]string{argv("scale -engine batch -n 20000 -k 4")}},
	{name: "scale-ring", steps: [][]string{argv("scale -topology ring -n 60 -k 3 -max 100000")}},
	// scale.journal was written by the per-command kpart-scale binary
	// this subcommand replaced: it must resume without re-running or
	// re-appending a trial.
	{name: "scale-resume", inputs: []string{"testdata/scale.journal"},
		steps: [][]string{argv("scale -n 2000 -k 4 -trials 3 -journal scale.journal -resume")},
		files: []string{"scale.journal"}},
	{name: "pp-kpartition4", inputs: []string{"testdata/kpartition4.pp"}, steps: [][]string{
		argv("pp -f kpartition4.pp -n 40"),
		argv("pp -f kpartition4.pp -dump"),
	}},
	{name: "pp-leader", inputs: []string{"testdata/leader.pp"}, steps: [][]string{argv("pp -f leader.pp")}},
	{name: "pp-majority", inputs: []string{"testdata/majority.pp"}, steps: [][]string{
		argv("pp -f majority.pp -init x=60,y=40"),
		argv("pp -f majority.pp -rules"),
	}},
	{name: "pp-rumor", inputs: []string{"testdata/rumor.pp"},
		steps: [][]string{argv("pp -f rumor.pp -init informed=1,susceptible=49")}},
	{name: "spans", inputs: []string{"testdata/spans.jsonl"}, steps: [][]string{
		argv("spans spans.jsonl"),
		argv("spans -critical spans.jsonl"),
		argv("spans -rollup spans.jsonl"),
		argv("spans -no-wall -trace t-trial spans.jsonl"),
	}},
	{name: "serve-smoke", steps: [][]string{argv("serve -smoke")}},
	{name: "twin-check", inputs: []string{"../../TWIN_baseline.json"},
		steps: [][]string{argv("twin-check -report-only")}},
	// regressed.json drops throughput past 20% and raises wall time past
	// 75%; improved.json only improves. Both move a zero baseline and the
	// scenario split; regressed.json also drops one point, adds another
	// and changes gomaxprocs.
	{name: "bench-diff", inputs: []string{"testdata/bench/base.json", "testdata/bench/improved.json", "testdata/bench/regressed.json"},
		steps: [][]string{
			argv("bench-diff base.json improved.json"),
			argv("bench-diff -v base.json improved.json"),
			argv("bench-diff -report-only base.json improved.json"),
			argv("bench-diff base.json regressed.json"),
			argv("bench-diff -v base.json regressed.json"),
			argv("bench-diff -report-only base.json regressed.json"),
		}},
}

// Only wall-clock-derived text varies between runs of the same
// invocation. Durations swallow the blanks around them because table
// columns pad to the widest cell.
var (
	durationRE  = regexp.MustCompile(`[ \t]*\b(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|ms|s)\b[ \t]*`)
	rateRE      = regexp.MustCompile(`[0-9.]+(e[+-][0-9]+)? interactions/sec`)
	createdAtRE = regexp.MustCompile(`"created_at": "[^"]*"`)
)

// normalise masks the wall-clock-derived text in a record and the run
// directory's path.
func normalise(s, dir string) string {
	s = regexp.MustCompile(regexp.QuoteMeta(dir)).ReplaceAllLiteralString(s, "<tmp>")
	s = durationRE.ReplaceAllLiteralString(s, " <dur> ")
	s = rateRE.ReplaceAllLiteralString(s, "<rate> interactions/sec")
	return createdAtRE.ReplaceAllLiteralString(s, `"created_at": "<time>"`)
}

// record runs c and returns its normalised record.
func record(t *testing.T, c goldenCase) string {
	t.Helper()
	dir := t.TempDir()
	for _, in := range c.inputs {
		data, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(in)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	for _, a := range c.steps {
		var stdout bytes.Buffer
		cmd := kpartCmd(dir, a...)
		cmd.Stdout = &stdout
		code, err := exitStatus(cmd.Run())
		if err != nil {
			t.Fatalf("kpart %s: %v", strings.Join(a, " "), err)
		}
		fmt.Fprintf(&b, "$ kpart %s\nexit %d\n%s", strings.Join(a, " "), code, stdout.Bytes())
	}
	for _, f := range c.files {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", f, data)
	}
	return normalise(b.String(), dir)
}

// exitStatus turns the error of a finished command into its exit status;
// it fails only when the command could not run or died on a signal.
func exitStatus(err error) (int, error) {
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, nil
	case errors.As(err, &ee) && ee.Exited():
		return ee.ExitCode(), nil
	default:
		return -1, err
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".txt") }
