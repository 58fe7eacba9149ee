package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in           string
		name, reason string
		ok           bool
		errContains  string
	}{
		{in: "// ordinary comment"},
		{in: "//go:build linux"},
		{in: "//lint:allow errclose -- close error already reported", name: "errclose", reason: "close error already reported", ok: true},
		{in: "//lint:allow errclose --  padded  reason ", name: "errclose", reason: "padded  reason", ok: true},
		{in: "//lint:allow errclose", ok: true, errContains: "no reason"},
		{in: "//lint:allow errclose --", ok: true, errContains: "no reason"},
		{in: "//lint:allow errclose --   ", ok: true, errContains: "no reason"},
		{in: "//lint:allow", ok: true, errContains: "analyzer name"},
		{in: "//lint:allow  -- why", ok: true, errContains: "analyzer name"},
		{in: "//lint:allow a b -- why", ok: true, errContains: "one analyzer name"},
		{in: "//lint:deny errclose -- why", ok: true, errContains: "unknown lint directive"},
		{in: "lint:allow errclose -- no slashes still a directive", name: "errclose", reason: "no slashes still a directive", ok: true},
	}
	for _, c := range cases {
		name, reason, ok, err := ParseAllow(c.in)
		if ok != c.ok {
			t.Errorf("ParseAllow(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if c.errContains != "" {
			if err == nil || !strings.Contains(err.Error(), c.errContains) {
				t.Errorf("ParseAllow(%q) err = %v, want containing %q", c.in, err, c.errContains)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAllow(%q) unexpected error: %v", c.in, err)
			continue
		}
		if name != c.name || reason != c.reason {
			t.Errorf("ParseAllow(%q) = (%q, %q), want (%q, %q)", c.in, name, reason, c.name, c.reason)
		}
	}
}

func at(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line, Column: 1}
}

// One directive must silence exactly one line: with findings on its own
// line and the next, the same-line match wins and the next-line finding
// survives.
func TestApplySuppressionsExactlyOne(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "errclose", Pos: at("f.go", 10), Message: "first"},
		{Analyzer: "errclose", Pos: at("f.go", 11), Message: "second"},
	}
	sups := []*Suppression{{Analyzer: "errclose", Reason: "r", Pos: at("f.go", 10)}}
	out := ApplySuppressions(diags, sups)
	if len(out) != 1 || out[0].Message != "second" {
		t.Fatalf("want exactly the line-11 diagnostic to survive, got %v", out)
	}
}

// The standalone form (directive alone on the line above) applies only
// when nothing matched on the directive's own line.
func TestApplySuppressionsNextLine(t *testing.T) {
	diags := []Diagnostic{{Analyzer: "maporder", Pos: at("f.go", 5), Message: "m"}}
	sups := []*Suppression{{Analyzer: "maporder", Reason: "r", Pos: at("f.go", 4)}}
	if out := ApplySuppressions(diags, sups); len(out) != 0 {
		t.Fatalf("standalone suppression did not apply: %v", out)
	}
}

// A standalone directive covers its one line whole: every finding of
// its analyzer on the next line is silenced, and nothing further down.
func TestApplySuppressionsNextLineWhole(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "determinism", Pos: at("f.go", 11), Message: "first"},
		{Analyzer: "determinism", Pos: at("f.go", 11), Message: "second"},
		{Analyzer: "determinism", Pos: at("f.go", 12), Message: "third"},
	}
	sups := []*Suppression{{Analyzer: "determinism", Reason: "r", Pos: at("f.go", 10)}}
	out := ApplySuppressions(diags, sups)
	if len(out) != 1 || out[0].Message != "third" {
		t.Fatalf("want only the line-12 diagnostic to survive, got %v", out)
	}
}

// A directive for a different analyzer suppresses nothing and is
// reported as unused; the original finding survives.
func TestApplySuppressionsWrongAnalyzer(t *testing.T) {
	diags := []Diagnostic{{Analyzer: "errclose", Pos: at("f.go", 3), Message: "m"}}
	sups := []*Suppression{{Analyzer: "determinism", Reason: "r", Pos: at("f.go", 3)}}
	out := ApplySuppressions(diags, sups)
	if len(out) != 2 {
		t.Fatalf("want surviving finding + unused-suppression, got %v", out)
	}
	var sawUnused, sawOriginal bool
	for _, d := range out {
		if d.Analyzer == SuppressName && strings.Contains(d.Message, "unused") {
			sawUnused = true
		}
		if d.Analyzer == "errclose" {
			sawOriginal = true
		}
	}
	if !sawUnused || !sawOriginal {
		t.Fatalf("want unused + original, got %v", out)
	}
}

// Suppression-hygiene findings can never themselves be suppressed.
func TestSuppressDiagnosticsUnsuppressible(t *testing.T) {
	diags := []Diagnostic{{Analyzer: SuppressName, Pos: at("f.go", 7), Message: "unused"}}
	sups := []*Suppression{{Analyzer: SuppressName, Reason: "r", Pos: at("f.go", 7)}}
	out := ApplySuppressions(diags, sups)
	// The hygiene finding survives and the directive is itself unused.
	if len(out) != 2 {
		t.Fatalf("suppress diagnostics must be unsuppressible, got %v", out)
	}
}
