// Package analysis is the simlint analyzer framework: one type-checked
// module load, an Analyzer interface over the loaded module, suppression
// comments and deterministically sorted findings.
//
// Rules live in the sibling package rules; the framework knows nothing about
// individual invariants.
package analysis

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Finding is one diagnostic. Findings render as "file:line: [rule] msg"
// with the file path relative to the module root, and are always emitted in
// (file, line, column, rule, message) order so simlint's own output is
// deterministic and golden-testable.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// Analyzer is one repo-specific rule, run once over the whole module. A
// rule that needs what another package declares (errwrap's sentinels,
// units' quantity types, lockscope's blocking summaries) reads it from the
// module directly: every package is already loaded and type-checked.
type Analyzer interface {
	// Name is the rule name used in diagnostics and suppressions.
	Name() string
	Run(m *Module) []Finding
}

// IgnorePrefix introduces a suppression comment:
//
//	//simlint:ignore <rule> <justification>
//
// placed either at the end of the offending line or on its own line
// directly above it. The justification is mandatory and the rule name must
// be one of the analyzers run: a malformed suppression does not suppress and
// is itself reported (rule "ignore").
const IgnorePrefix = "simlint:ignore"

// suppression is one parsed //simlint:ignore comment.
type suppression struct {
	rule   string
	reason string
}

// suppressionIndex maps file -> line -> suppressions declared on that line.
type suppressionIndex map[string]map[int][]suppression

// collectSuppressions parses every //simlint:ignore comment in the module.
// Malformed suppressions (no rule, unknown rule name, or no justification)
// are returned as findings under the "ignore" rule. known holds the names
// of the analyzers run; an unknown name would otherwise silently suppress
// nothing while looking like it suppresses something.
func collectSuppressions(m *Module, known map[string]bool) (suppressionIndex, []Finding) {
	idx := suppressionIndex{}
	var bad []Finding
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, IgnorePrefix) {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, IgnorePrefix))
					if len(fields) == 0 {
						bad = append(bad, Finding{Pos: pos, Rule: "ignore",
							Msg: "suppression names no rule; use //simlint:ignore <rule> <justification>"})
						continue
					}
					if !known[fields[0]] {
						bad = append(bad, Finding{Pos: pos, Rule: "ignore",
							Msg: fmt.Sprintf("suppression names unknown rule %q and is ignored; known rules: %s", fields[0], knownRuleList(known))})
						continue
					}
					if len(fields) == 1 {
						bad = append(bad, Finding{Pos: pos, Rule: "ignore",
							Msg: fmt.Sprintf("suppression of %q has no justification and is ignored; state why the rule does not apply", fields[0])})
						continue
					}
					lines := idx[pos.Filename]
					if lines == nil {
						lines = map[int][]suppression{}
						idx[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line],
						suppression{rule: fields[0], reason: strings.Join(fields[1:], " ")})
				}
			}
		}
	}
	return idx, bad
}

func knownRuleList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// suppressed reports whether a finding is covered by a suppression on its
// own line or the line directly above.
func (idx suppressionIndex) suppressed(f Finding) bool {
	lines := idx[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, s := range lines[line] {
			if s.rule == f.Rule {
				return true
			}
		}
	}
	return false
}

// Run loads the module at root and runs every analyzer over it, returning
// the surviving findings in deterministic order plus the loaded module.
// Suppression comments are validated against the names of the analyzers
// run.
func Run(root string, analyzers []Analyzer) ([]Finding, *Module, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	idx, findings := collectSuppressions(m, known)
	for _, a := range analyzers {
		for _, f := range a.Run(m) {
			if !idx.suppressed(f) {
				findings = append(findings, f)
			}
		}
	}
	for i := range findings {
		findings[i].Pos.Filename = m.RelFile(findings[i].Pos.Filename)
	}
	// Ordered by (file, line, column, rule, message), so output never
	// depends on analyzer or map iteration order.
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.Msg, b.Msg),
		)
	})
	return findings, m, nil
}

// Render formats findings one per line as "file:line: [rule] message".
func Render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
	return b.String()
}
