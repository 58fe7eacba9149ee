package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The sweep journal is the checkpoint/resume mechanism for long trial
// campaigns: an append-only JSON-Lines file, written next to the CSVs,
// holding one record per COMPLETED trial keyed by a content hash of its
// TrialSpec. Appends are single write(2) calls of one newline-terminated
// line, so a crash or SIGINT can tear at most the final record; the
// loader detects a torn tail, truncates it away, and the torn trial is
// simply re-run. Because trial results are a pure function of their spec,
// a resumed sweep merges journaled and fresh results into exactly the
// output an uninterrupted run would have produced.
//
// Layout:
//
//	{"journal":"kpart-trials","version":1,"meta":"fig3 seed=7 ..."}
//	{"key":"<hex>","result":{...TrialResult...},"wall_us":12345}
//	...
//
// The header's meta string identifies the campaign (figure, seed, trial
// count, engine); resuming under a different meta is refused, which
// catches the classic foot-gun of resuming yesterday's journal into
// today's differently-seeded sweep.

// journalMagic and journalVersion identify the file format.
const (
	journalMagic   = "kpart-trials"
	journalVersion = 1
)

type journalHeader struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
	Meta    string `json:"meta,omitempty"`
}

type journalRecord struct {
	Key    string      `json:"key"`
	Result TrialResult `json:"result"`
	WallUS uint64      `json:"wall_us,omitempty"`
}

// Entry is one journaled trial: its result plus the wall time the
// original execution took (microseconds), so resumed runs can still
// report wall-time summaries.
type Entry struct {
	Result TrialResult
	WallUS uint64
}

// SpecKey returns the stable content hash identifying a trial in the
// journal. It covers every field that determines the trial's outcome and
// nothing else (execution policy like timeouts or worker counts must not
// change a trial's identity).
func SpecKey(s TrialSpec) string {
	// v3 added the scenario axes (topo=, fair=, churn=): topology,
	// fairness regime, and churn schedule all change a trial's
	// trajectory, so they are part of its identity. Every sub-field is
	// hashed — including the regular graph's sampling seed and the crash
	// flag — because any of them selects a different run. Bumping the
	// version string retires every v2 key at once — an old journal
	// resumes as a fresh campaign rather than aliasing records across
	// the format change. (v2 had added batch=.)
	t, c := s.Topology, s.Churn
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"kpart-trial/v3 n=%d k=%d seed=%d max=%d grouping=%t engine=%d batch=%d"+
			" topo=%d:%dx%d:d%d:g%d fair=%d churn=%d:%d:%d:%d:%d:%t",
		s.N, s.K, s.Seed, s.MaxInteractions, s.Grouping, s.Engine, s.BatchSize,
		t.Kind, t.Rows, t.Cols, t.Degree, t.GraphSeed, s.Fairness,
		c.At, c.Interval, c.Events, c.Joins, c.Leaves, c.Crash)))
	return hex.EncodeToString(h[:16])
}

// Journal is an open sweep journal. All methods are safe for concurrent
// use; RunManyCtx appends from every worker.
type Journal struct {
	mu   sync.Mutex
	f    *os.File // guarded by mu
	path string
	done map[string]Entry // guarded by mu
}

// CreateJournal starts a fresh journal at path (truncating any previous
// one) with the given campaign meta string.
func CreateJournal(path, meta string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, done: make(map[string]Entry)}
	hdr, err := json.Marshal(journalHeader{Journal: journalMagic, Version: journalVersion, Meta: meta})
	if err != nil {
		_ = f.Close() // surfacing the marshal error; close is cleanup
		return nil, err
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		_ = f.Close() // surfacing the write error; close is cleanup
		return nil, fmt.Errorf("harness: writing journal header: %w", err)
	}
	return j, nil
}

// OpenJournal opens path for resuming: existing complete records are
// loaded (a torn trailing record — the crash signature — is truncated
// away), and subsequent appends continue the same file. A missing file
// degenerates to CreateJournal, so "-resume" on a first run just starts
// a fresh campaign. A non-empty meta must match the journal's header.
func OpenJournal(path, meta string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		return CreateJournal(path, meta)
	}
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, done: make(map[string]Entry)}
	if err := j.load(meta); err != nil {
		_ = f.Close() // surfacing the load error; close is cleanup
		return nil, err
	}
	return j, nil
}

// load replays the journal into memory and positions the file for
// appending just after the last complete record.
func (j *Journal) load(meta string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := bufio.NewReaderSize(j.f, 1<<16)
	var offset int64 // end of the last fully parsed line
	lineNo := 0
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A trailing fragment without '\n' is a torn append; any
			// bytes in it are discarded by the truncate below.
			break
		}
		if err != nil {
			return fmt.Errorf("harness: reading journal %s: %w", j.path, err)
		}
		lineNo++
		if lineNo == 1 {
			var hdr journalHeader
			if jerr := json.Unmarshal(line, &hdr); jerr != nil || hdr.Journal != journalMagic {
				return fmt.Errorf("harness: %s is not a trial journal", j.path)
			}
			if hdr.Version != journalVersion {
				return fmt.Errorf("harness: journal %s has version %d, want %d", j.path, hdr.Version, journalVersion)
			}
			if meta != "" && hdr.Meta != "" && hdr.Meta != meta {
				return fmt.Errorf("harness: journal %s belongs to a different campaign (%q, resuming %q)", j.path, hdr.Meta, meta)
			}
			offset += int64(len(line))
			continue
		}
		var rec journalRecord
		if jerr := json.Unmarshal(line, &rec); jerr != nil || !consistent(rec.Key, rec.Result) {
			// A torn append never carries its trailing newline (the write
			// is a single call, so what's lost is a suffix), so a
			// malformed COMPLETE line is real corruption, not a crash
			// signature — refuse rather than silently drop trials. So is
			// a record filed under another spec's key (or none), or one
			// whose result no trial of its spec can return: Lookup would
			// answer that spec with it.
			return fmt.Errorf("harness: journal %s: corrupt record on line %d", j.path, lineNo)
		}
		j.done[rec.Key] = Entry{Result: rec.Result, WallUS: rec.WallUS}
		offset += int64(len(line))
	}
	if lineNo == 0 {
		return fmt.Errorf("harness: journal %s is empty (missing header)", j.path)
	}
	if err := j.f.Truncate(offset); err != nil {
		return fmt.Errorf("harness: truncating torn journal tail: %w", err)
	}
	if _, err := j.f.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// consistent reports whether a record filed under key can be what a trial
// of its result's spec returned: the key is the spec's, no more encounters
// are productive than were scheduled, a converged result has Spread ≤ 1
// and is not Frozen, and grouping marks appear only on a Grouping spec,
// in non-decreasing order and no later than the last interaction.
func consistent(key string, res TrialResult) bool {
	if key != SpecKey(res.Spec) || res.Productive > res.Interactions ||
		res.Converged && (res.Spread > 1 || res.Frozen) ||
		len(res.Marks) > 0 && !res.Spec.Grouping {
		return false
	}
	var prev uint64
	for _, m := range res.Marks {
		if m < prev || m > res.Interactions {
			return false
		}
		prev = m
	}
	return true
}

// Lookup returns the journaled entry for spec, if any.
func (j *Journal) Lookup(spec TrialSpec) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.done[SpecKey(spec)]
	return e, ok
}

// LookupKey returns the journaled entry under a raw spec key. The HTTP
// result endpoint resolves GET /v1/results/{speckey} through it — the
// client holds only the content hash, not the spec that produced it.
func (j *Journal) LookupKey(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.done[key]
	return e, ok
}

// Len reports how many completed trials the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Append records one completed trial under its spec's key; a result's
// Spec is the trial as planned, so resume lookups match. The record is
// written as a single newline-terminated write, the atomic unit of the
// format.
func (j *Journal) Append(res TrialResult, wall time.Duration) error {
	rec := journalRecord{Key: SpecKey(res.Spec), Result: res, WallUS: uint64(wall.Microseconds())}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("harness: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("harness: appending to journal %s: %w", j.path, err)
	}
	j.done[rec.Key] = Entry{Result: res, WallUS: rec.WallUS}
	return nil
}

// Close flushes and closes the journal file. Lookup keeps working on the
// in-memory index; Append starts failing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
