// Package rules holds simlint's analyzers and its one gate, TestRepoClean.
// Each rule is a small analysis.Analyzer; All wires them to a Config, and
// the analyzers it returns are the rule names a //simlint:ignore comment
// may name.
package rules

import "scalesim/tools/simlint/internal/analysis"

// Config selects what the rules check, by module-relative package
// directory. See RepoConfig for the repository's own settings.
type Config struct {
	// Root is the module root directory.
	Root string
	// Deterministic lists the packages whose code must be reproducible:
	// maporder and wallclock apply only there.
	Deterministic []string
	// UnitsDir is the package declaring the named quantity types (Cycles,
	// Bytes, ...) that the units analyzer enforces. Empty disables the rule.
	UnitsDir string
	// Goroutines lists the packages where every `go` statement must be
	// joined through a sync.WaitGroup and the spawning function must accept
	// a context.Context.
	Goroutines []string
	// Locks lists the packages where the lockscope rule enforces mutex
	// hygiene (no blocking operation with a mutex held, no return path that
	// leaks a lock).
	Locks []string
}

// RepoConfig is this repository's lint policy. The deterministic set is
// every package whose code executes between "design point in" and "Result
// out": the simulator core and its substrate models, the synthetic trace
// generators, the machine configurations, the ML fits and the scale-model
// protocols built on them, and the campaign engine (whose cache keys and
// reports must themselves be reproducible).
func RepoConfig(root string) Config {
	return Config{
		Root: root,
		Deterministic: []string{
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
		UnitsDir: "internal/units",
		// The epoch fork/join pool's `go` statements in internal/sim must be
		// WaitGroup-joined and context-scoped like every other pool in the
		// tree.
		Goroutines: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim"},
		// Mutex hygiene in every package that mixes locks with channels, the
		// journal, or the network — and the epoch simulator, which must in
		// fact hold no locks at all.
		Locks: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim", "internal/scalemodel"},
	}
}

// All returns every analyzer, configured from cfg, in a fixed order.
func All(cfg Config) []analysis.Analyzer {
	return []analysis.Analyzer{
		maporder{det: set(cfg.Deterministic)},
		wallclock{det: set(cfg.Deterministic)},
		unitsRule{dir: cfg.UnitsDir},
		errwrap{},
		goroleak{pkgs: set(cfg.Goroutines)},
		ctxflow{},
		lockscope{pkgs: set(cfg.Locks)},
	}
}

func set(dirs []string) map[string]bool {
	s := map[string]bool{}
	for _, d := range dirs {
		s[d] = true
	}
	return s
}
