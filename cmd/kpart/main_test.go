package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// kpartBin is the binary TestMain builds from this package.
var kpartBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kpart-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	kpartBin = filepath.Join(dir, "kpart")
	if out, err := exec.Command("go", "build", "-o", kpartBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building kpart: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// kpartCmd returns `kpart a...` to run in dir.
func kpartCmd(dir string, a ...string) *exec.Cmd {
	cmd := exec.Command(kpartBin, a...)
	cmd.Dir = dir
	return cmd
}

// run runs `kpart a...` in dir to completion; a run still going after a
// minute is killed and fails the test rather than hang it.
func run(t *testing.T, dir string, a ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := kpartCmd(dir, a...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(time.Minute, func() { _ = cmd.Process.Kill() })
	defer timer.Stop()
	code, err := exitStatus(cmd.Wait())
	if err != nil {
		t.Fatalf("kpart %s: %v", strings.Join(a, " "), err)
	}
	return out.String(), errb.String(), code
}

// The goldens were recorded from the per-command binaries kpart
// replaced; every subcommand must reproduce them unchanged.
func TestGoldens(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(c.name))
			if err != nil {
				t.Fatal(err)
			}
			if got := record(t, c); got != string(want) {
				t.Errorf("record differs from %s\n%s", goldenPath(c.name), firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first line where want and got part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		switch {
		case i >= len(w) || i >= len(g):
			return fmt.Sprintf("line %d: want %d lines, got %d", i+1, len(w), len(g))
		case w[i] != g[i]:
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, w[i], g[i])
		}
	}
}

func TestSubcommandDispatch(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []struct {
		name string
		n    int
	}{{"n1.jsonl", 1}, {"n1e7.jsonl", 10_000_000}} {
		hdr := fmt.Sprintf(`{"protocol":"x","n":%d,"states":10}`+"\n", f.n)
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(hdr), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{nil, 2, "", "usage: kpart <subcommand>"},
		{[]string{"frobnicate"}, 2, "", `unknown subcommand "frobnicate"`},
		{[]string{"help"}, 0, "usage: kpart <subcommand>", ""},
		{[]string{"run", "-no-such-flag"}, 2, "", "flag provided but not defined: -no-such-flag"},
		{[]string{"run", "-h"}, 0, "", "-trace string"},
		{[]string{"scale", "-resume"}, 2, "", "kpart scale: -resume requires -journal"},
		{[]string{"scale", "-engine", "warp"}, 2, "", "kpart scale: "},
		{[]string{"trace", "-k", "3"}, 2, "", "usage: kpart trace"},
		{argv("trace -k 4 n1.jsonl"), 1, "", "replay validation failed: trace: replay diverged: trace has n = 1"},
		{argv("trace -k 4 n1e7.jsonl"), 1, "", "trace has n = 10000000, above the replay bound trace.MaxN = 2048"},
		{[]string{"bench-diff", "only-one.json"}, 2, "", "usage: kpart bench-diff"},
		{[]string{"twin-check", "-baseline", "missing.json"}, 1, "", "kpart twin-check: reading baseline"},
		{argv("exact -k 3 -nmin 8 -nmax 5 -sim 0"), 2, "", "kpart exact: -nmin 8 exceeds -nmax 5"},
		{argv("exact -k 3 -nmin 100 -nmax 100 -sim 0"), 1, "", "exceeds the 200000-state budget"},
		{argv("exact -k 1367 -sim 0"), 2, "", "kpart exact: "},
		{argv("compare -k 1367"), 2, "", "kpart compare: harness: invalid trial spec"},
	} {
		stdout, stderr, code := run(t, dir, c.args...)
		if code != c.code || !strings.Contains(stdout, c.stdout) || !strings.Contains(stderr, c.stderr) {
			t.Errorf("kpart %s: exit %d, stdout %q, stderr %q; want exit %d with %q on stdout and %q on stderr",
				strings.Join(c.args, " "), code, stdout, stderr, c.code, c.stdout, c.stderr)
		}
	}
}

// kpart scale validates every k's spec before it opens the journal: a
// spec no trial can run exits 2 with the reason and leaves no file.
func TestScaleRefusesInvalidSpecs(t *testing.T) {
	for _, a := range []string{
		"scale -n 100 -k 2000 -trials 1",
		"scale -engine batch -n 100 -k 4 -trials 1 -batch 60 -journal s.journal",
		"scale -n 12 -k 3 -topology grid:3x5",
		"scale -n 11 -k 3 -topology regular:3 -max 1000",
		"scale -n 30 -k 3 -churn at=10,events=1,leave=40",
	} {
		dir := t.TempDir()
		stdout, stderr, code := run(t, dir, argv(a)...)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "kpart scale: harness: invalid trial spec: ") || len(files) != 0 {
			t.Errorf("kpart %s: exit %d, stdout %q, stderr %q, %d files left; want exit 2 naming the invalid spec and no file",
				a, code, stdout, stderr, len(files))
		}
	}
}

// countMinimums lists every int flag of every subcommand with the
// smallest value it accepts.
var countMinimums = []struct {
	sub, flag string
	min       int
}{
	{"run", "n", 3}, {"run", "k", 2},
	{"scale", "n", 3}, {"scale", "trials", 1},
	{"experiments", "trials", 1}, {"experiments", "workers", 0}, {"experiments", "nmax", 3},
	{"experiments", "fig6max", 2},
	{"compare", "n", 3}, {"compare", "k", 2}, {"compare", "trials", 1},
	{"exact", "k", 2}, {"exact", "nmin", 3}, {"exact", "nmax", 3}, {"exact", "sim", 0},
	{"verify", "kmax", 2}, {"verify", "nmax", 3},
	{"trace", "k", 2},
	{"predict", "n", 3}, {"predict", "k", 2},
	{"pp", "n", 2},
	{"serve", "workers", 0}, {"serve", "queue", 0}, {"serve", "cache", 0},
	{"serve", "max-sweep-trials", 0},
	{"bench", "trials", 1},
	{"twin-check", "trials", 1},
}

// A count below its minimum is refused before any work starts: exit 2,
// the flag named on stderr, nothing on stdout. Several of these values
// used to panic (an empty quantile sample, makeslice, a division by
// zero, population.New) or silently run something else.
func TestCountFlagMinimums(t *testing.T) {
	dir := t.TempDir()
	for _, c := range countMinimums {
		bad := strconv.Itoa(c.min - 1)
		stdout, stderr, code := run(t, dir, c.sub, "-"+c.flag, bad)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-"+c.flag+" "+bad+" is below its minimum") {
			t.Errorf("kpart %s -%s %s: exit %d, stdout %q, stderr %q; want exit 2 naming the flag",
				c.sub, c.flag, bad, code, stdout, stderr)
		}
	}
}

// Every int flag a subcommand defines has a row in countMinimums.
func TestCountMinimumsCoverEveryIntFlag(t *testing.T) {
	listed := map[string]bool{}
	for _, c := range countMinimums {
		listed[c.sub+" -"+c.flag] = true
	}
	intFlag := regexp.MustCompile(`(?m)^  -(\S+) int$`)
	for _, c := range commands {
		_, stderr, _ := run(t, t.TempDir(), c.name, "-h")
		for _, m := range intFlag.FindAllStringSubmatch(stderr, -1) {
			if !listed[c.name+" -"+m[1]] {
				t.Errorf("kpart %s -%s: int flag without a minimum in countMinimums", c.name, m[1])
			}
		}
	}
}

// The first SIGINT drains a journaled run: exit 130 with the resume
// hint, every completed trial on disk, and a -resume rerun that ends
// exactly where an uninterrupted run does.
func TestInterruptAndResume(t *testing.T) {
	for _, c := range []struct {
		name, journal string
		args          []string
		// compare returns what must match between the resumed and the
		// uninterrupted run.
		compare func(t *testing.T, dir, stdout string) string
	}{
		{"scale", "s.journal", argv("scale -n 2000 -k 4 -trials 150 -journal s.journal"),
			func(t *testing.T, dir, stdout string) string {
				resumed := regexp.MustCompile(`(?m)^\(\d+ of 150 trials resumed from journal\)\n`)
				return normalise(resumed.ReplaceAllString(stdout, ""), dir)
			}},
		{"experiments", "results/fig3.journal", argv("experiments -fig 3 -trials 150 -nmax 40"),
			func(t *testing.T, dir, _ string) string {
				return readFile(t, filepath.Join(dir, "results", "fig3.csv"))
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var stderr bytes.Buffer
			cmd := kpartCmd(dir, c.args...)
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			journal := filepath.Join(dir, c.journal)
			waitForRecords(t, journal, 3)
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			code, err := exitStatus(cmd.Wait())
			if err != nil {
				t.Fatal(err)
			}
			if code != 130 || !strings.Contains(stderr.String(), "rerun with -resume to continue") {
				t.Fatalf("interrupted run: exit %d, stderr %q; want 130 and the resume hint", code, stderr.String())
			}
			saved := checkJournal(t, journal)

			stdout, _, code := run(t, dir, append(c.args, "-resume")...)
			if code != 0 {
				t.Fatalf("resumed run: exit %d", code)
			}
			if c.name == "scale" && !strings.Contains(stdout, fmt.Sprintf("(%d of 150 trials resumed from journal)", saved)) {
				t.Errorf("resumed run did not reuse the %d journaled trials:\n%s", saved, stdout)
			}
			ref := t.TempDir()
			refOut, _, code := run(t, ref, c.args...)
			if code != 0 {
				t.Fatalf("uninterrupted run: exit %d", code)
			}
			if got, want := c.compare(t, dir, stdout), c.compare(t, ref, refOut); got != want {
				t.Errorf("resumed run differs from an uninterrupted one\n%s", firstDiff(want, got))
			}
		})
	}
}

// A SIGKILL at any point costs at most the record being written: a
// -resume rerun reuses every whole record the journal holds and writes
// the CSV an uninterrupted run does. Trials are deterministic, so a
// resume that re-ran every trial would write the same CSV too; the
// harness/resumed counter tells the two apart.
func TestKillAnywhereResume(t *testing.T) {
	const total = 14_850 // trials in fig 3 at -trials 150 -nmax 40
	args := argv("experiments -fig 3 -trials 150 -nmax 40")
	ref := t.TempDir()
	if _, _, code := run(t, ref, args...); code != 0 {
		t.Fatalf("uninterrupted run: exit %d", code)
	}
	want := readFile(t, filepath.Join(ref, "results", "fig3.csv"))
	draw := rng.New(0x6b696c6c)
	for i := 0; i < 4; i++ {
		// Kill well before the end, so the kill lands mid-run.
		records := 1 + draw.Intn(total*9/10)
		dir := t.TempDir()
		cmd := kpartCmd(dir, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitForRecords(t, filepath.Join(dir, "results", "fig3.journal"), records)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait() // killed: no exit status to check
		if _, _, code := run(t, dir, append(args, "-resume", "-metrics")...); code != 0 {
			t.Fatalf("kill at %d records: resumed run exit %d", records, code)
		}
		resumed := counter(t, filepath.Join(dir, "results", "metrics.jsonl"), "harness/resumed")
		t.Logf("killed at %d records; the rerun resumed %d of %d trials", records, resumed, total)
		if resumed < uint64(records) {
			t.Errorf("kill at %d records: resumed run reused %d trials", records, resumed)
		}
		if got := readFile(t, filepath.Join(dir, "results", "fig3.csv")); got != want {
			t.Errorf("kill at %d records: resumed CSV differs from an uninterrupted run\n%s", records, firstDiff(want, got))
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// counter returns the named counter's value from a metrics snapshot
// (JSON Lines: a header, then one metric a line); absent means zero.
func counter(t *testing.T, path, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(readFile(t, path)), "\n") {
		var m struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// waitForRecords polls a journal until it holds n trial records.
func waitForRecords(t *testing.T, path string, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && bytes.Count(data, []byte("\n")) > n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d records", path, n)
}

// checkJournal asserts the journal ends on a whole record and returns
// how many trial records it holds.
func checkJournal(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("%s ends mid-record", path)
	}
	records := -1 // the header line
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("%s: torn line %q", path, sc.Text())
		}
		records++
	}
	return records
}
