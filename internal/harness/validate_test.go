package harness

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/countsim"
)

// validateExempt lists the TrialSpec fields ValidateSpec need not
// check, each with its reason.
var validateExempt = map[string]string{
	"Seed": "any seed is valid",
}

// TestValidateSpecRejectsEachField holds ValidateSpec to every TrialSpec
// field: each row is a valid spec and a change to that one field that
// admission must reject. A field added to TrialSpec without a row or an
// exemption fails the walk, so a value that can crash a run cannot
// reach the engines unchecked.
func TestValidateSpecRejectsEachField(t *testing.T) {
	plain := TrialSpec{N: 24, K: 4, Seed: 7}
	ring := TrialSpec{N: 12, K: 3, MaxInteractions: 1000, Topology: TopologySpec{Kind: TopologyRing}}
	churn := TrialSpec{N: 12, K: 3, MaxInteractions: 1000, Churn: ChurnSpec{At: 10, Events: 1, Joins: 1}}
	batch := TrialSpec{N: 24, K: 4, Engine: EngineBatch, BatchSize: 4}
	count := TrialSpec{N: 24, K: 8, Engine: EngineCount}
	huge := TrialSpec{N: countsim.MaxN + 1, K: 8}
	rows := []struct {
		field  string
		base   TrialSpec
		mutate func(*TrialSpec)
	}{
		{"N", plain, func(s *TrialSpec) { s.N = 2 }},
		{"K", plain, func(s *TrialSpec) { s.K = 1 }},
		{"Engine", plain, func(s *TrialSpec) { s.Engine = 99 }},
		{"Topology", plain, func(s *TrialSpec) { s.Topology.Kind = 99 }},
		{"Fairness", plain, func(s *TrialSpec) { s.Fairness = 99 }},
		{"Churn", plain, func(s *TrialSpec) { s.Churn.At = 100 }},
		{"MaxInteractions", ring, func(s *TrialSpec) { s.MaxInteractions = 0 }},
		{"Grouping", churn, func(s *TrialSpec) { s.Grouping = true }},
		// 2·size wraps to 0 here, so only a bound that divides n holds.
		{"BatchSize", batch, func(s *TrialSpec) { s.BatchSize = 1 << 63 }},
		// The count engines' n(n−1) ordered pairs overflow an int64.
		{"N", count, func(s *TrialSpec) { s.N = countsim.MaxN + 1 }},
		{"N", batch, func(s *TrialSpec) { s.N = 5_000_000_000 }},
		{"Engine", huge, func(s *TrialSpec) { s.Engine = EngineCount }},
		{"Engine", huge, func(s *TrialSpec) { s.Engine = EngineBatch }},
	}
	covered := make(map[string]bool)
	for _, row := range rows {
		covered[row.field] = true
		if err := ValidateSpec(row.base); err != nil {
			t.Errorf("%s: base spec %+v rejected: %v", row.field, row.base, err)
			continue
		}
		spec := row.base
		row.mutate(&spec)
		if err := ValidateSpec(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: ValidateSpec(%+v) = %v, want ErrInvalidSpec", row.field, spec, err)
		}
		// The row must change its own field and nothing else.
		f := reflect.ValueOf(&spec).Elem().FieldByName(row.field)
		orig := reflect.ValueOf(row.base).FieldByName(row.field)
		if f.Equal(orig) {
			t.Errorf("%s: mutation leaves the field unchanged", row.field)
		}
		f.Set(orig)
		if spec != row.base {
			t.Errorf("%s: mutation changes another field: %+v vs %+v", row.field, spec, row.base)
		}
	}
	typ := reflect.TypeOf(TrialSpec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := validateExempt[name]; !ok && !covered[name] {
			t.Errorf("TrialSpec.%s has no ValidateSpec row: add one that a bad %s fails, or exempt the field with its reason", name, name)
		}
	}
	for name := range validateExempt {
		if _, ok := typ.FieldByName(name); !ok || covered[name] {
			t.Errorf("exempt field %s is gone from TrialSpec or also has a row", name)
		}
	}
}

// Admission builds no protocol table, and Proto keeps none for k above
// protoCacheMaxK, so requests at many large k do not pin ~84 MB each.
func TestLargeKTableNotCached(t *testing.T) {
	if err := ValidatePartition(1, MaxK); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("ValidatePartition(1, MaxK) = %v, want ErrInvalidSpec", err)
	}
	if got := Proto(MaxK).K(); got != MaxK {
		t.Fatalf("Proto(MaxK).K() = %d, want %d", got, MaxK)
	}
	cache.mu.Lock()
	_, kept := cache.m[MaxK]
	cache.mu.Unlock()
	if kept {
		t.Fatal("the protocol cache keeps the MaxK table")
	}
}
