package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/harness"
)

func TestTrialRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  TrialRequest
		ok   bool
	}{
		{"valid", TrialRequest{N: 24, K: 4, Seed: 7}, true},
		{"valid count engine", TrialRequest{N: 24, K: 4, Engine: "count"}, true},
		{"k too small", TrialRequest{N: 24, K: 1}, false},
		{"k too large", TrialRequest{N: 24, K: harness.MaxK + 1}, false},
		{"n too small", TrialRequest{N: 1, K: 4}, false},
		{"bad engine", TrialRequest{N: 24, K: 4, Engine: "banana"}, false},
	}
	for _, tc := range cases {
		spec, err := tc.req.Spec()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if spec.N != tc.req.N || spec.K != tc.req.K {
				t.Errorf("%s: spec %+v does not carry the request", tc.name, spec)
			}
			continue
		}
		// Every rejection must wrap the sentinel the HTTP layer maps to
		// 400 — anything else would surface as a 500.
		if !errors.Is(err, harness.ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func TestSweepRequestValidation(t *testing.T) {
	if _, err := (SweepRequest{TrialRequest: TrialRequest{N: 12, K: 3, Seed: 1}, Trials: 4}).Sweep(0); err != nil {
		t.Fatalf("valid sweep: %v", err)
	}
	for name, req := range map[string]SweepRequest{
		"zero trials":     {TrialRequest: TrialRequest{N: 12, K: 3}, Trials: 0},
		"negative trials": {TrialRequest: TrialRequest{N: 12, K: 3}, Trials: -1},
		"bad point":       {TrialRequest: TrialRequest{N: 1, K: 3}, Trials: 2},
	} {
		if _, err := req.Sweep(0); !errors.Is(err, harness.ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
		}
	}
	if _, err := (SweepRequest{TrialRequest: TrialRequest{N: 12, K: 3}, Trials: 5}).Sweep(4); !errors.Is(err, harness.ErrInvalidSpec) {
		t.Error("sweep above the per-request bound was accepted")
	}
	if _, err := (SweepRequest{TrialRequest: TrialRequest{N: 12, K: 3}, Trials: DefaultMaxSweepTrials + 1}).Sweep(0); !errors.Is(err, harness.ErrInvalidSpec) {
		t.Error("sweep above the default bound was accepted")
	}
}

// TestRequestsCarryEveryField checks the wire mapping of every
// TrialSpec field: TrialRequest names each one, a few valid requests
// together set each one, and a sweep of a request expands to exactly
// that request's spec under the per-cell seeds.
func TestRequestsCarryEveryField(t *testing.T) {
	specType := reflect.TypeOf(harness.TrialSpec{})
	for i := 0; i < specType.NumField(); i++ {
		name := specType.Field(i).Name
		if _, ok := reflect.TypeOf(TrialRequest{}).FieldByName(name); !ok {
			t.Errorf("TrialRequest has no %s field, so TrialSpec.%s cannot be set over the wire", name, name)
		}
	}
	reqs := []TrialRequest{
		{N: 12, K: 3, Seed: 9, MaxInteractions: 1000, Grouping: true, Topology: "ring", Fairness: "weak"},
		{N: 12, K: 3, MaxInteractions: 1000, Churn: "at=10,events=1,join=1"},
		{N: 24, K: 4, Engine: "batch", BatchSize: 4},
	}
	set := make([]bool, specType.NumField())
	for _, req := range reqs {
		spec, err := req.Spec()
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		for i := range set {
			set[i] = set[i] || !reflect.ValueOf(spec).Field(i).IsZero()
		}
		sweep, err := SweepRequest{TrialRequest: req, Trials: 3, PointID: 5}.Sweep(0)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		specs := sweep.Specs()
		if len(specs) != 3 {
			t.Fatalf("%+v: %d specs, want 3", req, len(specs))
		}
		for i, got := range specs {
			want := spec
			want.Seed = harness.SeedForCell(req.Seed, 5, i)
			if got != want {
				t.Errorf("%+v: trial %d spec\n%+v\nwant\n%+v", req, i, got, want)
			}
		}
	}
	for i, ok := range set {
		if !ok {
			t.Errorf("no request sets TrialSpec.%s: add a request that does", specType.Field(i).Name)
		}
	}
}

// TestRecordEncodeDeterministic pins the content-addressing premise:
// encoding the same record twice yields identical bytes (Go's JSON
// struct marshaling is field-ordered), so journal replays and LRU hits
// are byte-identical to the response that first computed the trial.
func TestRecordEncodeDeterministic(t *testing.T) {
	spec := harness.TrialSpec{N: 24, K: 4, Seed: 7}
	rec := Record{
		SpecKey: harness.SpecKey(spec),
		Result:  harness.TrialResult{Spec: spec, Interactions: 99, Converged: true, Marks: []uint64{1, 2}},
		WallUS:  1234,
	}
	a, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Encode is not deterministic:\n%s\n%s", a, b)
	}
	if bytes.HasSuffix(a, []byte{'\n'}) {
		t.Fatal("Encode appended a trailing newline; NDJSON writers own that")
	}
}
