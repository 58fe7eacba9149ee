// Command perfbench is the repository's benchmark. It runs one named
// workload on a seed, checks every output, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload fig6-n960 --seed 1 --seconds 40 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics, a traced run
// (--trace 1) the per-layer ones. The line before it records the host.
// A failed check makes the run exit 1; README.md describes the
// workloads, the metrics and the checks.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	// tiny shrinks every workload for the self-test.
	tiny bool
}

// workloadNames lists the workloads the benchmark can run. BENCHMARK.json
// names all but scale-1e8, whose run-to-run spread on this kind of shared
// host exceeded the bound (README.md, "Noise"); it stays runnable by hand.
var workloadNames = []string{"fig6-n960", "scale-1e8", "serve-mix"}

// run executes one run and returns its result line.
func run(cfg config) (result, error) {
	var t tally
	var vals map[string]float64
	var err error
	switch cfg.workload {
	case "fig6-n960":
		vals, err = trialRun(fig6Load(cfg.tiny), cfg, &t)
	case "scale-1e8":
		vals, err = trialRun(scaleLoad(cfg.tiny), cfg, &t)
	case "serve-mix":
		if cfg.trace {
			vals, err = traceServe(serveMixLoad(cfg.tiny), cfg, &t)
		} else {
			vals, err = runServe(serveMixLoad(cfg.tiny), cfg, &t)
		}
	default:
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, err
	}
	if t.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed; first: %v\n", t.failed, t.attempted, t.first)
	}
	return buildResult(cfg.trace, vals, &t)
}

func trialRun(w trialLoad, cfg config, t *tally) (map[string]float64, error) {
	if cfg.trace {
		return traceTrials(w, cfg, t)
	}
	return runTrials(w, cfg, t)
}

// host is the run's host record.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	// Source is a SHA-256 over the Go sources and module files under the
	// working directory, which names the code where there is no commit.
	Source string `json:"source_sha256"`
}

func hostRecord() host {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
		Source:     sourceDigest("."),
	}
}

// sourceDigest hashes every .go, go.mod and go.sum file under root,
// skipping dot-directories, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	workload := flag.String("workload", workloadNames[0], "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the run's inputs are a function of it")
	seconds := flag.Int("seconds", 40, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1, --trace 0 or 1, and no arguments")
		os.Exit(2)
	}
	res, err := run(config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Host host `json:"host"`
	}{hostRecord()}); err != nil {
		os.Exit(2)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
