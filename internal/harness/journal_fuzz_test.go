package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// FuzzJournalLoad opens arbitrary bytes as a journal. Opening never
// panics; every entry it accepts is filed under its own spec's key and
// fits that spec (see consistent); and a journal it accepts takes an
// Append that survives a reopen.
func FuzzJournalLoad(f *testing.F) {
	var results []TrialResult
	for _, spec := range []TrialSpec{{N: 16, K: 4, Seed: 3}, {N: 16, K: 4, Seed: 4, Grouping: true}, {N: 12, K: 3, Seed: 5}} {
		res, err := RunTrial(spec)
		if err != nil {
			f.Fatal(err)
		}
		results = append(results, res)
	}
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := CreateJournal(path, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	for _, res := range results[:2] {
		if err := j.Append(res, time.Millisecond); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	header := journal[:bytes.IndexByte(journal, '\n')+1]
	f.Add(journal)
	f.Add(journal[:len(journal)-20]) // a torn final record
	f.Add(header)

	appended := results[2]
	path = filepath.Join(f.TempDir(), "trials.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "")
		if err != nil {
			return
		}
		for key, e := range j.done {
			r := e.Result
			if key != SpecKey(r.Spec) {
				t.Errorf("entry filed under %s, its spec's key is %s", key, SpecKey(r.Spec))
			}
			if r.Productive > r.Interactions || r.Converged && (r.Spread > 1 || r.Frozen) {
				t.Errorf("accepted %d productive of %d interactions, converged=%t spread=%d frozen=%t",
					r.Productive, r.Interactions, r.Converged, r.Spread, r.Frozen)
			}
			if len(r.Marks) > 0 && (!r.Spec.Grouping || !slices.IsSorted(r.Marks) || r.Marks[len(r.Marks)-1] > r.Interactions) {
				t.Errorf("accepted marks %v of %d interactions on grouping=%t", r.Marks, r.Interactions, r.Spec.Grouping)
			}
		}
		if err := j.Append(appended, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, "")
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		defer j2.Close()
		if _, ok := j2.Lookup(appended.Spec); !ok {
			t.Fatal("appended trial lost on reopen")
		}
	})
}
