// Package rules holds simlint's analyzers. Each rule is a small
// analysis.Analyzer; the registry in All wires them to a Config and is the
// single source of truth for known rule names (which also validates
// //simlint:ignore comments).
package rules

import "scalesim/tools/simlint/internal/analysis"

// RepoConfig is this repository's lint policy. The deterministic set is
// every package whose code executes between "design point in" and "Result
// out": the simulator core and its substrate models, the synthetic trace
// generators, the machine configurations, the ML fits and the scale-model
// protocols built on them, and the campaign engine (whose cache keys and
// reports must themselves be reproducible). It lives here, next to the
// rules, so the driver and the repo-clean test share one definition.
func RepoConfig(root string) analysis.Config {
	cfg := analysis.Config{
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
		// internal/sim joined for PR 10: the epoch fork/join pool's `go`
		// statements must be WaitGroup-joined and context-scoped like every
		// other pool in the tree.
		Goroutines: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim"},
		// Mutex hygiene in every package that mixes locks with channels, the
		// journal, or the network — and, since PR 10, the epoch simulator
		// (which must in fact hold no locks at all).
		Locks: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim", "internal/scalemodel"},
	}
	// Suppressions always validate against the full registry, even when the
	// driver runs a rule subset.
	cfg.KnownRules = Names(cfg)
	return cfg
}

// All returns every analyzer, configured from cfg, in a fixed order.
func All(cfg analysis.Config) []analysis.Analyzer {
	det := map[string]bool{}
	for _, d := range cfg.Deterministic {
		det[d] = true
	}
	goro := map[string]bool{}
	for _, d := range cfg.Goroutines {
		goro[d] = true
	}
	locks := map[string]bool{}
	for _, d := range cfg.Locks {
		locks[d] = true
	}
	return []analysis.Analyzer{
		maporder{det: det},
		wallclock{det: det},
		unitsRule{dir: cfg.UnitsDir},
		errwrap{},
		goroleak{pkgs: goro},
		ctxflow{},
		lockscope{pkgs: locks},
	}
}

// Select returns the subset of All(cfg) whose names appear in names, in
// registry order. Unknown names are reported by the caller via Names.
func Select(cfg analysis.Config, names map[string]bool) []analysis.Analyzer {
	var out []analysis.Analyzer
	for _, a := range All(cfg) {
		if names[a.Name()] {
			out = append(out, a)
		}
	}
	return out
}

// Names lists every registered rule name in registry order.
func Names(cfg analysis.Config) []string {
	var out []string
	for _, a := range All(cfg) {
		out = append(out, a.Name())
	}
	return out
}
