// Package rules is simlint: one type-checked load of the module, seven
// syntactic rules over it, in-source suppressions and sorted findings. Its
// one gate is TestRepoClean.
package rules

import (
	"cmp"
	"fmt"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
)

// config selects what the rules check, by module-relative package
// directory. See repoConfig for the repository's own settings.
type config struct {
	// root is the module root directory.
	root string
	// det lists the packages whose code must be reproducible: maporder and
	// wallclock apply only there.
	det []string
	// unitsDir is the package declaring the named quantity types (Cycles,
	// Bytes, ...) that the units rule enforces. Empty disables the rule.
	unitsDir string
	// goroutines lists the packages where every `go` statement must be
	// joined through a sync.WaitGroup and the spawning function must accept
	// a context.Context.
	goroutines []string
	// locks lists the packages where the lockscope rule enforces mutex
	// hygiene (no blocking operation with a mutex held, no branch out of a
	// section that leaks a lock).
	locks []string
}

// repoConfig is this repository's lint policy. The deterministic set is
// every package whose code executes between "design point in" and "Result
// out": the simulator core and its substrate models, the synthetic trace
// generators, the machine configurations, the ML fits and the scale-model
// protocols built on them, and the campaign engine (whose cache keys and
// reports must themselves be reproducible).
func repoConfig(root string) config {
	return config{
		root: root,
		det: []string{
			"internal/sim",
			// The per-cycle core model is the hottest loop in the repo:
			// maporder here is what keeps map iteration out of it.
			"internal/cpu",
			"internal/branch",
			"internal/trace",
			"internal/cache",
			"internal/noc",
			"internal/dram",
			"internal/config",
			// Forest/SVR fits: the surrogate and scale-model fingerprints
			// are functions of them.
			"internal/ml",
			"internal/fit",
			"internal/metrics",
			"internal/scalemodel",
			"internal/runner",
			"internal/store",
			// The serving layer schedules work, so its decisions (admission
			// order, coalescing) must be a pure function of request arrival
			// order — no wall clock, no map-iteration order.
			"internal/server",
			// The surrogate tier's trained model must be a pure function of
			// (training set, configuration): byte-identical fingerprints
			// across processes require the same discipline.
			"internal/surrogate",
		},
		unitsDir: "internal/units",
		// The epoch fork/join pool's `go` statements in internal/sim must be
		// WaitGroup-joined and context-scoped like every other pool in the
		// tree.
		goroutines: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim"},
		// Mutex hygiene in every package that mixes locks with channels, the
		// journal, or the network — and the epoch simulator, which must in
		// fact hold no locks at all.
		locks: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim", "internal/scalemodel"},
	}
}

// reporter records one finding of the rule it was handed to.
type reporter func(pos token.Pos, format string, args ...any)

// rules is every rule, sorted by name: the name is what its findings print
// and what a //simlint:ignore comment names. A rule that needs what another
// package declares (errwrap's sentinels, units' quantity types, lockscope's
// blocking summaries) reads it off the loaded module.
var rules = []struct {
	name string
	run  func(*module, config, reporter)
}{
	{"ctxflow", ctxflow},
	{"errwrap", errwrap},
	{"goroleak", goroleak},
	{"lockscope", lockscope},
	{"maporder", maporder},
	{"units", units},
	{"wallclock", wallclock},
}

// finding is one diagnostic, its file relative to the module root.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

// lint loads the module at cfg.root, runs every rule over it and returns
// the findings no suppression covers, in (file, line, column, rule,
// message) order so the report never depends on rule or map iteration
// order, with the loaded module.
func lint(cfg config) ([]finding, *module, error) {
	m, err := loadModule(cfg.root)
	if err != nil {
		return nil, nil, err
	}
	var out []finding
	add := func(rule string, pos token.Pos, format string, args ...any) {
		p := m.fset.Position(pos)
		p.Filename, _ = filepath.Rel(m.root, p.Filename)
		p.Filename = filepath.ToSlash(p.Filename)
		out = append(out, finding{p, rule, fmt.Sprintf(format, args...)})
	}
	ignored := suppressions(m, add)
	for _, r := range rules {
		r.run(m, cfg, func(pos token.Pos, format string, args ...any) {
			p := m.fset.Position(pos)
			if !ignored[site{p.Filename, p.Line, r.name}] && !ignored[site{p.Filename, p.Line - 1, r.name}] {
				add(r.name, pos, format, args...)
			}
		})
	}
	slices.SortFunc(out, func(a, b finding) int {
		return cmp.Or(
			cmp.Compare(a.pos.Filename, b.pos.Filename),
			cmp.Compare(a.pos.Line, b.pos.Line),
			cmp.Compare(a.pos.Column, b.pos.Column),
			cmp.Compare(a.rule, b.rule),
			cmp.Compare(a.msg, b.msg),
		)
	})
	return out, m, nil
}

// site is a line a suppression covers for one rule.
type site struct {
	file string
	line int
	rule string
}

// ignorePrefix introduces a suppression comment,
//
//	//simlint:ignore <rule> <justification>
//
// at the end of the offending line or on its own line directly above it.
// The justification is mandatory and the rule must be one of rules: a
// malformed suppression does not suppress and is itself reported (rule
// "ignore"), since an unknown name would otherwise suppress nothing while
// looking like it suppresses something.
const ignorePrefix = "simlint:ignore"

// suppressions collects every well-formed //simlint:ignore comment of the
// module and reports each malformed one through add.
func suppressions(m *module, add func(rule string, pos token.Pos, format string, args ...any)) map[site]bool {
	var names []string
	for _, r := range rules {
		names = append(names, r.name)
	}
	ignored := map[site]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					switch fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix)); {
					case len(fields) == 0:
						add("ignore", c.Pos(), "suppression names no rule; use //simlint:ignore <rule> <justification>")
					case !slices.Contains(names, fields[0]):
						add("ignore", c.Pos(), "suppression names unknown rule %q and is ignored; known rules: %s", fields[0], strings.Join(names, ", "))
					case len(fields) == 1:
						add("ignore", c.Pos(), "suppression of %q has no justification and is ignored; state why the rule does not apply", fields[0])
					default:
						pos := m.fset.Position(c.Pos())
						ignored[site{pos.Filename, pos.Line, fields[0]}] = true
					}
				}
			}
		}
	}
	return ignored
}

// render formats findings one per line as "file:line: [rule] message".
func render(fs []finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", f.pos.Filename, f.pos.Line, f.rule, f.msg)
	}
	return b.String()
}
