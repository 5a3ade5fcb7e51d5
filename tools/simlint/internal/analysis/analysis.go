// Package analysis is the simlint analyzer framework: a shared type-checked
// module load, an Analyzer interface with per-package facts, suppression
// comments, deterministically sorted diagnostics, and a JSON report format
// for CI.
//
// Rules live in the sibling package rules; the framework knows nothing about
// individual invariants.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
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

// Analyzer is one repo-specific rule, run once per package. Packages are
// visited in import-topological order, so facts exported from a package are
// visible when its importers are analyzed.
type Analyzer interface {
	// Name is the rule name used in diagnostics and suppressions.
	Name() string
	Run(pass *Pass) []Finding
}

// Pass carries one (analyzer, package) unit of work plus the fact store
// shared across packages of the same analyzer.
type Pass struct {
	Module *Module
	Pkg    *Package

	analyzer string
	facts    *factStore
}

// ExportFact records a named fact about the current package, visible to
// later packages of the same analyzer via ImportFact. Facts are namespaced
// per analyzer; rules cannot observe each other's facts.
func (p *Pass) ExportFact(key string, value any) {
	p.facts.set(p.analyzer, p.Pkg.Path, key, value)
}

// ImportFact retrieves a fact exported by this analyzer for the package with
// the given import path. Because packages are visited in import-topological
// order, facts of everything the current package imports are available.
func (p *Pass) ImportFact(pkgPath, key string) (any, bool) {
	return p.facts.get(p.analyzer, pkgPath, key)
}

type factKey struct {
	analyzer string
	pkgPath  string
	key      string
}

type factStore struct{ m map[factKey]any }

func newFactStore() *factStore { return &factStore{m: map[factKey]any{}} }

func (s *factStore) set(analyzer, pkgPath, key string, v any) {
	s.m[factKey{analyzer, pkgPath, key}] = v
}

func (s *factStore) get(analyzer, pkgPath, key string) (any, bool) {
	v, ok := s.m[factKey{analyzer, pkgPath, key}]
	return v, ok
}

// IgnorePrefix introduces a suppression comment:
//
//	//simlint:ignore <rule> <justification>
//
// placed either at the end of the offending line or on its own line
// directly above it. The justification is mandatory and the rule name must
// be a registered analyzer: a malformed suppression does not suppress and is
// itself reported (rule "ignore").
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
// are returned as findings under the "ignore" rule. known holds the
// registered rule names; an unknown name would otherwise silently suppress
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

// Config selects what the pipeline checks. The zero value is not usable;
// see rules.RepoConfig for the repository's own settings.
type Config struct {
	// Root is the module root directory.
	Root string
	// Deterministic lists module-relative package directories whose code
	// must be reproducible: maporder and wallclock apply only there.
	Deterministic []string
	// UnitsDir is the module-relative directory of the package declaring
	// the named quantity types (Cycles, Bytes, ...) that the units analyzer
	// enforces. Empty disables the rule.
	UnitsDir string
	// Goroutines lists module-relative package directories where every `go`
	// statement must be joined through a sync.WaitGroup and the spawning
	// function must accept a context.Context.
	Goroutines []string
	// Locks lists module-relative package directories where the lockscope
	// rule enforces mutex hygiene (no blocking operation with a mutex held,
	// no return path that leaks a lock).
	Locks []string
	// KnownRules lists every registered rule name for //simlint:ignore
	// validation. When empty, the names of the analyzers actually run are
	// used — set it when running a rule subset, so suppressions of inactive
	// rules are not misreported as unknown.
	KnownRules []string
}

// Run loads the module and runs every analyzer, returning the surviving
// findings in deterministic order plus the loaded module. Suppression
// comments are validated against cfg.KnownRules when set, otherwise against
// the names of the analyzers run.
func Run(cfg Config, analyzers []Analyzer) ([]Finding, *Module, error) {
	m, err := LoadModule(cfg.Root)
	if err != nil {
		return nil, nil, err
	}
	known := map[string]bool{}
	for _, n := range cfg.KnownRules {
		known[n] = true
	}
	if len(known) == 0 {
		for _, a := range analyzers {
			known[a.Name()] = true
		}
	}
	idx, findings := collectSuppressions(m, known)
	facts := newFactStore()
	for _, a := range analyzers {
		for _, p := range m.Order {
			pass := &Pass{Module: m, Pkg: p, analyzer: a.Name(), facts: facts}
			for _, f := range a.Run(pass) {
				if !idx.suppressed(f) {
					findings = append(findings, f)
				}
			}
		}
	}
	for i := range findings {
		findings[i].Pos.Filename = m.RelFile(findings[i].Pos.Filename)
	}
	SortFindings(findings)
	return findings, m, nil
}

// SortFindings orders findings by (file, line, column, rule, message) so
// output never depends on analyzer or map iteration order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// Render formats findings one per line as "file:line: [rule] message".
func Render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
	return b.String()
}

// EnclosingFuncs applies fn to every function declaration with a body in the
// file, giving analyzers a named context for their walks.
func EnclosingFuncs(f *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}
