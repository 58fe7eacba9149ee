// Package parse reads population protocols from a small text format, so
// the simulation toolkit (`kpart pp`) can run user-defined protocols without
// recompiling. The format, one directive per line:
//
//	# comment (also after directives)
//	protocol <name>          — optional; defaults to the file name
//	symmetric                — reject asymmetric rules at build time
//	init <state>             — designated initial state (required)
//	group <state> <int>      — output group of a state (default 1)
//	rule <a> <b> -> <c> <d>  — unordered rule: fires for (a,b) and (b,a)
//	orule <a> <b> -> <c> <d> — ordered rule: initiator a, responder b only
//
// States are declared implicitly by first mention; names are any
// whitespace-free tokens ("initial'", "m2", "g1"...). Example, the
// three-state approximate majority protocol:
//
//	protocol approx-majority
//	init x
//	group x 1
//	group y 2
//	group blank 1
//	orule x y -> x blank
//	orule y x -> y blank
//	orule x blank -> x x
//	orule y blank -> y y
package parse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// ErrSyntax wraps all parse failures; errors carry the line number.
var ErrSyntax = errors.New("parse: syntax error")

// Result bundles the compiled protocol with source metadata.
type Result struct {
	Protocol *protocol.Table
	// Names maps state names to their dense indices.
	Names map[string]protocol.State
}

// Reader parses a protocol definition from r. defaultName is used when the
// source has no `protocol` directive.
func Reader(r io.Reader, defaultName string) (*Result, error) {
	sc := bufio.NewScanner(r)
	name := defaultName
	symmetric := false
	var initName string
	groups := map[string]int{}
	type rawRule struct {
		a, b, c, d string
		ordered    bool
		line       int
	}
	var rules []rawRule
	mentioned := []string{}
	seen := map[string]bool{}
	mention := func(states ...string) {
		for _, s := range states {
			if !seen[s] {
				seen[s] = true
				mentioned = append(mentioned, s)
			}
		}
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "protocol":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: protocol takes one name", ErrSyntax, lineNo)
			}
			name = fields[1]
		case "symmetric":
			if len(fields) != 1 {
				return nil, fmt.Errorf("%w: line %d: symmetric takes no arguments", ErrSyntax, lineNo)
			}
			symmetric = true
		case "init":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: init takes one state", ErrSyntax, lineNo)
			}
			initName = fields[1]
			mention(fields[1])
		case "group":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: group takes a state and an integer", ErrSyntax, lineNo)
			}
			g, err := strconv.Atoi(fields[2])
			if err != nil || g < 1 {
				return nil, fmt.Errorf("%w: line %d: bad group %q", ErrSyntax, lineNo, fields[2])
			}
			groups[fields[1]] = g
			mention(fields[1])
		case "rule", "orule":
			// <a> <b> -> <c> <d>
			if len(fields) != 6 || fields[3] != "->" {
				return nil, fmt.Errorf("%w: line %d: want %q", ErrSyntax, lineNo,
					fields[0]+" a b -> c d")
			}
			mention(fields[1], fields[2], fields[4], fields[5])
			rules = append(rules, rawRule{
				a: fields[1], b: fields[2], c: fields[4], d: fields[5],
				ordered: fields[0] == "orule", line: lineNo,
			})
		default:
			return nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrSyntax, lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if initName == "" {
		return nil, fmt.Errorf("%w: missing init directive", ErrSyntax)
	}
	if len(mentioned) == 0 {
		return nil, fmt.Errorf("%w: no states", ErrSyntax)
	}

	b := protocol.NewBuilder(name, symmetric)
	ids := make(map[string]protocol.State, len(mentioned))
	for _, s := range mentioned {
		g := groups[s]
		if g == 0 {
			g = 1
		}
		ids[s] = b.AddState(s, g)
	}
	b.SetInitial(ids[initName])
	for _, r := range rules {
		if r.ordered {
			b.AddOrderedRule(ids[r.a], ids[r.b], ids[r.c], ids[r.d])
		} else {
			b.AddRule(ids[r.a], ids[r.b], ids[r.c], ids[r.d])
		}
	}
	tab, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("parse: building %q: %w", name, err)
	}
	return &Result{Protocol: tab, Names: ids}, nil
}

// String parses a protocol from an in-memory definition.
func String(src, defaultName string) (*Result, error) {
	return Reader(strings.NewReader(src), defaultName)
}

// Format renders a protocol back into the textual format (states with
// non-default groups, then rules), a round-trip aid for tooling.
func Format(p protocol.Protocol) string {
	// Emit each unordered encounter once; one-way behaviour (a rule whose
	// reversed orientation acts differently) comes out as orule pairs.
	var rules strings.Builder
	anyOrdered := false
	n := p.NumStates()
	for a := 0; a < n; a++ {
		for bb := 0; bb < n; bb++ {
			out, _ := p.Delta(protocol.State(a), protocol.State(bb))
			if int(out.P) == a && int(out.Q) == bb {
				continue
			}
			mirror, _ := p.Delta(protocol.State(bb), protocol.State(a))
			mirrored := mirror.P == out.Q && mirror.Q == out.P
			if mirrored && bb < a {
				continue // already emitted as (b, a)
			}
			kw := "rule"
			if !mirrored {
				kw = "orule"
				anyOrdered = true
			}
			fmt.Fprintf(&rules, "%s %s %s -> %s %s\n", kw,
				p.StateName(protocol.State(a)), p.StateName(protocol.State(bb)),
				p.StateName(out.P), p.StateName(out.Q))
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "protocol %s\n", strings.ReplaceAll(p.Name(), " ", "-"))
	// The `symmetric` directive makes the Builder reject ordered rules,
	// so emit it only when the protocol is both diagonally symmetric (the
	// paper's definition) and fully mirror-closed (no orules needed).
	if _, ok := protocol.CheckSymmetric(p); ok && !anyOrdered {
		sb.WriteString("symmetric\n")
	}
	fmt.Fprintf(&sb, "init %s\n", p.StateName(p.InitialState()))
	for s := 0; s < p.NumStates(); s++ {
		if g := p.Group(protocol.State(s)); g != 1 {
			fmt.Fprintf(&sb, "group %s %d\n", p.StateName(protocol.State(s)), g)
		}
	}
	sb.WriteString(rules.String())
	return sb.String()
}
