package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSpecKeyCoversIdentityOnly(t *testing.T) {
	base := TrialSpec{N: 20, K: 4, Seed: 9, MaxInteractions: 1000, Grouping: true, Engine: EngineCount}
	if SpecKey(base) != SpecKey(base) {
		t.Fatal("SpecKey not stable")
	}
	variants := []TrialSpec{
		{N: 21, K: 4, Seed: 9, MaxInteractions: 1000, Grouping: true, Engine: EngineCount},
		{N: 20, K: 5, Seed: 9, MaxInteractions: 1000, Grouping: true, Engine: EngineCount},
		{N: 20, K: 4, Seed: 10, MaxInteractions: 1000, Grouping: true, Engine: EngineCount},
		{N: 20, K: 4, Seed: 9, MaxInteractions: 1001, Grouping: true, Engine: EngineCount},
		{N: 20, K: 4, Seed: 9, MaxInteractions: 1000, Grouping: false, Engine: EngineCount},
		{N: 20, K: 4, Seed: 9, MaxInteractions: 1000, Grouping: true, Engine: EngineAgent},
	}
	for i, v := range variants {
		if SpecKey(v) == SpecKey(base) {
			t.Fatalf("variant %d collides with base", i)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "trials.journal")
	j, err := CreateJournal(path, "campaign-x")
	if err != nil {
		t.Fatal(err)
	}
	spec := TrialSpec{N: 20, K: 4, Seed: 1}
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res, 1234*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res, 0); err == nil {
		t.Fatal("append after Close accepted")
	}

	j2, err := OpenJournal(path, "campaign-x")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("len %d", j2.Len())
	}
	e, ok := j2.Lookup(spec)
	if !ok {
		t.Fatal("journaled trial not found")
	}
	if e.WallUS != 1234 {
		t.Fatalf("wall %d", e.WallUS)
	}
	// Bit-exact restore: every TrialResult field survives the round trip.
	want, _ := json.Marshal(res)
	got, _ := json.Marshal(e.Result)
	if !bytes.Equal(want, got) {
		t.Fatalf("result changed through journal:\n%s\n%s", want, got)
	}
}

func TestJournalRefusesForeignCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j, err := CreateJournal(path, "fig3 seed=7")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, "fig3 seed=8"); err == nil {
		t.Fatal("foreign campaign meta accepted")
	}
	// Empty meta skips the check (callers that don't stamp campaigns).
	j2, err := OpenJournal(path, "")
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
}

func TestJournalRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	notj := filepath.Join(dir, "x.journal")
	if err := os.WriteFile(notj, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(notj, ""); err == nil {
		t.Fatal("garbage header accepted")
	}
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(empty, ""); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestJournalCorruptMiddleRecordRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j, err := CreateJournal(path, "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{3, 4} {
		res, err := RunTrial(TrialSpec{N: 16, K: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		j.Append(res, 0)
	}
	j.Close()

	// Corrupt the FIRST record (a complete, newline-terminated line): this
	// cannot be a torn append, so load must refuse, not silently drop it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"key"`, `"kxy"`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, ""); err == nil {
		t.Fatal("corrupt complete record accepted")
	}
}

// A record filed under another spec's key is refused: reopened, it would
// answer Lookup for that spec with a result of a different trial.
func TestJournalRefusesMiskeyedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j, err := CreateJournal(path, "c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTrial(TrialSpec{N: 30, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := SpecKey(TrialSpec{N: 24, K: 4, Seed: 1})
	rekeyed := strings.Replace(string(data), SpecKey(res.Spec), other, 1)
	if err := os.WriteFile(path, []byte(rekeyed), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, "c")
	if err == nil {
		e, _ := j2.LookupKey(other)
		j2.Close()
		t.Fatalf("re-keyed record accepted: n=24 k=4 resolves to the n=%d k=%d result", e.Result.Spec.N, e.Result.Spec.K)
	}
	if !strings.Contains(err.Error(), "corrupt record on line 2") {
		t.Fatalf("error %q does not name line 2", err)
	}
}

// tearFinalRecord chops the journal's last line mid-record, exactly what a
// crash during the final append leaves behind.
func tearFinalRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("journal does not end in newline")
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	torn := data[:cut+(len(data)-cut)/2] // half the final record, no newline
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJournalTornTailTruncatedAndAppendable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	j, err := CreateJournal(path, "c")
	if err != nil {
		t.Fatal(err)
	}
	specs := []TrialSpec{{N: 16, K: 4, Seed: 3}, {N: 16, K: 4, Seed: 4}, {N: 16, K: 4, Seed: 5}}
	for _, s := range specs {
		res, err := RunTrial(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(res, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	tearFinalRecord(t, path)

	j2, err := OpenJournal(path, "c")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("after tear: len %d, want 2", j2.Len())
	}
	if _, ok := j2.Lookup(specs[2]); ok {
		t.Fatal("torn trial still resolves")
	}
	// The file must be positioned cleanly after the tear: append the torn
	// trial again and reopen.
	res, err := RunTrial(specs[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(res, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 {
		t.Fatalf("after repair: len %d, want 3", j3.Len())
	}
}

// The tentpole's acceptance scenario in miniature: a sweep is killed with
// its final journal record torn mid-line; the resumed run skips every
// completed trial, re-runs the torn one, and the merged CSV is
// byte-identical to an uninterrupted run's.
func TestSweepCrashRecoveryMatchesUninterruptedCSV(t *testing.T) {
	dir := t.TempDir()
	sweep := SweepSpec{TrialSpec: TrialSpec{N: 18, K: 3, Seed: 77}, Trials: 6, PointID: 9, Workers: 4}

	// Reference: the uninterrupted run.
	ptRef, err := SweepPointCtx(context.Background(), sweep, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	csvRef, err := WriteCSVFile(dir, "ref.csv", SweepTable([]KSeries{{K: 3, Points: []Point{ptRef}}}))
	if err != nil {
		t.Fatal(err)
	}

	// "Crashed" run: only 4 of 6 trials complete, then the journal's final
	// record is torn mid-line.
	jpath := filepath.Join(dir, "sweep.journal")
	j, err := CreateJournal(jpath, "crash-test")
	if err != nil {
		t.Fatal(err)
	}
	specs := sweep.Specs()
	if _, err := RunManyCtx(context.Background(), specs[:4], 2, RunOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	tearFinalRecord(t, jpath)

	// Resume: 3 intact records answered from the journal, the torn trial
	// plus the 2 never-started ones re-run.
	reg := obs.New("test")
	SetMetrics(reg)
	defer SetMetrics(nil)
	j2, err := OpenJournal(jpath, "crash-test")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("resumed journal holds %d trials, want 3", j2.Len())
	}
	ptRes, err := SweepPointCtx(context.Background(), sweep, RunOptions{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness/resumed").Value(); got != 3 {
		t.Fatalf("resumed counter = %d, want 3", got)
	}
	if got := reg.Counter("harness/trials").Value(); got != 3 {
		t.Fatalf("re-ran %d trials, want 3 (torn + 2 fresh)", got)
	}
	if j2.Len() != 6 {
		t.Fatalf("journal after resume holds %d trials, want 6", j2.Len())
	}

	csvRes, err := WriteCSVFile(dir, "res.csv", SweepTable([]KSeries{{K: 3, Points: []Point{ptRes}}}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(csvRef)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(csvRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\n%s", a, b)
	}
}
