package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzJournalLoad opens arbitrary bytes as a journal. Opening never
// panics; every entry it accepts is filed under its own spec's key; and
// a journal it accepts takes an Append that survives a reopen.
func FuzzJournalLoad(f *testing.F) {
	var results []TrialResult
	for _, spec := range []TrialSpec{{N: 16, K: 4, Seed: 3}, {N: 16, K: 4, Seed: 4}, {N: 12, K: 3, Seed: 5}} {
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
			if key != SpecKey(e.Result.Spec) {
				t.Errorf("entry filed under %s, its spec's key is %s", key, SpecKey(e.Result.Spec))
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
