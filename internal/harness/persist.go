package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// Persistence: experiment results as JSON documents with enough metadata
// (seed, trials, timestamp, git-less provenance) to re-run any cell. The
// experiment binaries write these next to the CSVs; EXPERIMENTS.md points
// at them.

// ResultDoc is the serialized form of one experiment run.
type ResultDoc struct {
	// Experiment identifies the figure/ablation ("fig3", "fig6", ...).
	Experiment string `json:"experiment"`
	// Seed is the root seed; any cell reproduces via SeedForCell.
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	// CreatedAt is RFC3339; informational only.
	CreatedAt string `json:"created_at"`
	// Series holds sweep experiments (fig3/4/5); Points flat experiments
	// (fig6). Exactly one is set.
	Series []KSeries `json:"series,omitempty"`
	Points []Point   `json:"points,omitempty"`
}

// SaveJSON writes doc to dir/name (creating dir), pretty-printed.
func SaveJSON(dir, name string, doc ResultDoc) (string, error) {
	if doc.CreatedAt == "" {
		doc.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// SaveSnapshotJSONL writes an obs metrics snapshot as JSON Lines into
// dir (creating it), next to the experiment's result docs, so a run's
// metrics travel with its results.
func SaveSnapshotJSONL(dir, name string, snap obs.Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := snap.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}
