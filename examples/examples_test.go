// Package examples_test runs every example program and compares its
// standard output with testdata/<name>.txt.
package examples_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// Each example is seeded and prints no wall-clock text, so its output is
// fixed; the checks inside it exit non-zero through log.Fatal. A new
// example directory fails here until its output is recorded.
func TestExamples(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+name)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./%s: %v\n%s", name, err, stderr.Bytes())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from testdata/%s.txt\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
