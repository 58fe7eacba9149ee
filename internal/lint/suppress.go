package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Suppression semantics: a comment of the form
//
//	//lint:allow <analyzer> -- <reason>
//
// silences diagnostics from exactly that analyzer on the comment's own
// line (trailing form) or, failing that, on the line directly below it
// (standalone form). The reason is mandatory — `make lint` enforces
// "zero unexplained suppressions" mechanically, not by review. Three
// hygiene rules are themselves diagnostics, reported under the reserved
// analyzer name "suppress":
//
//   - a malformed directive (missing analyzer, missing `-- reason`)
//   - an unknown analyzer name
//   - an unused suppression (nothing on its target lines to silence)
//
// The directive is spelled like //go:build: no space after the slashes.

// SuppressName is the reserved analyzer name for suppression-hygiene
// diagnostics; it cannot itself be suppressed.
const SuppressName = "suppress"

const allowPrefix = "lint:"

// Suppression is one parsed //lint:allow directive.
type Suppression struct {
	Analyzer string
	Reason   string
	// Pos is the comment's position; suppressed diagnostics must be on
	// Pos.Line or Pos.Line+1.
	Pos  token.Position
	used bool
}

// ParseAllow parses one comment's text (with or without the leading
// "//"). ok reports whether the comment is a lint directive at all;
// err, when ok, reports a malformed or incomplete directive.
func ParseAllow(text string) (analyzer, reason string, ok bool, err error) {
	text = strings.TrimSuffix(strings.TrimPrefix(text, "//"), "\n")
	rest, isDirective := strings.CutPrefix(text, allowPrefix)
	if !isDirective {
		return "", "", false, nil
	}
	verb, args, _ := strings.Cut(rest, " ")
	if verb != "allow" {
		return "", "", true, fmt.Errorf("unknown lint directive %q (only //lint:allow is defined)", "lint:"+verb)
	}
	name, reasonPart, hasReason := strings.Cut(args, "--")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", "", true, fmt.Errorf("//lint:allow needs an analyzer name: //lint:allow <analyzer> -- <reason>")
	}
	if strings.ContainsAny(name, " \t") {
		return "", "", true, fmt.Errorf("//lint:allow takes one analyzer name, got %q", name)
	}
	if !hasReason || strings.TrimSpace(reasonPart) == "" {
		return "", "", true, fmt.Errorf("//lint:allow %s has no reason; write //lint:allow %s -- <why this is safe>", name, name)
	}
	return name, strings.TrimSpace(reasonPart), true, nil
}

// CollectSuppressions scans a loaded package's comments. Malformed
// directives and unknown analyzer names (not in known) are returned as
// diagnostics immediately; well-formed suppressions are returned for
// the post-run filter.
func CollectSuppressions(pkg *Package, known map[string]bool) ([]*Suppression, []Diagnostic) {
	var sups []*Suppression
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok, err := ParseAllow(c.Text)
				if !ok {
					continue
				}
				at := pkg.Fset.Position(c.Pos())
				if err != nil {
					diags = append(diags, Diagnostic{Analyzer: SuppressName, Pos: at, Message: err.Error()})
					continue
				}
				if !known[name] {
					diags = append(diags, Diagnostic{
						Analyzer: SuppressName,
						Pos:      at,
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q (known: %s)", name, knownNames(known)),
					})
					continue
				}
				sups = append(sups, &Suppression{Analyzer: name, Reason: reason, Pos: at})
			}
		}
	}
	return sups, diags
}

func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ApplySuppressions drops suppressed diagnostics and reports unused
// suppressions. Matching is two-pass so one directive silences at most
// one line: same-line (trailing comment) matches win; a directive that
// matched nothing on its own line then applies to the next line. Either
// way it silences every finding of its analyzer on the one line it
// covers. "suppress" diagnostics are never suppressible.
//
// Interprocedural findings (diagnostics carrying a scope line, set by
// the runner for analyzers marked Interprocedural) get one more
// placement: a directive on the enclosing function's declaration line.
// Unlike the line forms, a function-scoped directive silences every
// matching finding in the function — the unit of explanation for a
// call-path finding is the function, not one line of it.
func ApplySuppressions(diags []Diagnostic, sups []*Suppression) []Diagnostic {
	type lineKey struct {
		file     string
		line     int
		analyzer string
	}
	byLine := make(map[lineKey][]*Suppression)
	for _, s := range sups {
		k := lineKey{s.Pos.Filename, s.Pos.Line, s.Analyzer}
		byLine[k] = append(byLine[k], s)
	}
	suppressedAt := func(d Diagnostic, line int) bool {
		if d.Analyzer == SuppressName {
			return false
		}
		for _, s := range byLine[lineKey{d.Pos.Filename, line, d.Analyzer}] {
			s.used = true
			return true
		}
		return false
	}

	var kept []Diagnostic
	var pending []Diagnostic
	for _, d := range diags {
		if suppressedAt(d, d.Pos.Line) {
			continue
		}
		pending = append(pending, d)
	}
	// A directive that silenced its own line covers no other.
	ownLine := make(map[*Suppression]bool)
	for _, s := range sups {
		ownLine[s] = s.used
	}
	for _, d := range pending {
		// Standalone form: directive on the line above, and only if
		// that directive did not already silence its own line.
		if d.Analyzer != SuppressName {
			k := lineKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}
			if ss := byLine[k]; len(ss) > 0 && !ownLine[ss[0]] {
				ss[0].used = true
				continue
			}
			// Function-scoped form for interprocedural findings: a
			// directive on (or just above) the enclosing declaration
			// line. Scoped directives are not consumed — one silences
			// every matching finding in the function.
			if d.scopeLine > 0 && d.scopeLine != d.Pos.Line {
				scoped := false
				for _, line := range [2]int{d.scopeLine, d.scopeLine - 1} {
					if ss := byLine[lineKey{d.Pos.Filename, line, d.Analyzer}]; len(ss) > 0 {
						ss[0].used = true
						scoped = true
						break
					}
				}
				if scoped {
					continue
				}
			}
		}
		kept = append(kept, d)
	}
	for _, s := range sups {
		if !s.used {
			kept = append(kept, Diagnostic{
				Analyzer: SuppressName,
				Pos:      s.Pos,
				Message:  fmt.Sprintf("unused //lint:allow %s (nothing to suppress on this line or the next)", s.Analyzer),
			})
		}
	}
	return kept
}
