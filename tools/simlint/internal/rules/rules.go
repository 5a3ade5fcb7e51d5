// Package rules holds simlint's analyzers. Each rule is a small
// analysis.PackageAnalyzer or analysis.ModuleAnalyzer; the registry in All
// wires them to a Config and is the single source of truth for known rule
// names (which also validates //simlint:ignore comments).
package rules

import "scalesim/tools/simlint/internal/analysis"

// RepoConfig is this repository's lint policy. The deterministic set is
// every package whose code executes between "design point in" and "Result
// out": the simulator core and its models, the synthetic trace generators,
// the scale-model protocols, and the campaign engine (whose cache keys and
// reports must themselves be reproducible). It lives here, next to the
// rules, so the driver and the repo-clean test share one definition.
func RepoConfig(root string) analysis.Config {
	cfg := analysis.Config{
		Root: root,
		Deterministic: []string{
			"internal/sim",
			"internal/trace",
			"internal/cache",
			"internal/noc",
			"internal/dram",
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
		KeyFile:  "internal/runner/key.go",
		KeyRoots: []string{"internal/runner.Job"},
		UnitsDir: "internal/units",
		// internal/sim joined for PR 10: the epoch fork/join pool's `go`
		// statements must be WaitGroup-joined and context-scoped like every
		// other pool in the tree.
		Goroutines: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim"},
		// The root package must keep at least Simulate/SimulateParallel/
		// RunCampaign as Context pairs; a refactor that hides them from the
		// analyzer would otherwise silently void the rule.
		APIPairMin: map[string]int{"": 3},
		// The surrogate quarantine invariant (PR 7): anything the predictor
		// returns is approximate and must never reach a ground-truth tier —
		// the durable store, the engine's memory cache, or the training set
		// (predictions fed back as observations would make the model eat its
		// own output).
		ApproxSources: []string{
			"internal/runner.Predictor.Predict",
			"internal/ml.RandomForest.Predict",
			"internal/ml.RandomForest.PredictStats",
		},
		ApproxSinks: []string{
			"internal/runner.ResultStore.Save@1",
			"internal/store.Store.Save@1",
			"internal/runner.Predictor.Observe@1",
		},
		ApproxCaches: []string{"internal/runner.Engine.cache"},
		// Mutex hygiene in every package that mixes locks with channels, the
		// journal, or the network — and, since PR 10, the epoch simulator
		// (which must in fact hold no locks at all; hotpath enforces that
		// on the hot set, lockscope on whatever it would add).
		Locks: []string{"internal/runner", "internal/store", "internal/server", "internal/surrogate", "internal/sim"},
		// The hot set of the epoch simulator (PR 9's 0 allocs/op loop): the
		// per-cycle core stepper, the memory-system resolve path, and the
		// cache access paths, per-core and shared-LLC.
		HotRoots: []string{
			"internal/cpu.Core.Run",
			"internal/sim.coreCtx.resolve",
			"internal/cache.Level.Access",
			"internal/cache.NUCA.Access",
		},
		// The epoch fork/join pool: goroutines spawned here must not write
		// shared simulator state.
		WorkerRoots: []string{"internal/sim.machine.runCoresParallel"},
		SharedTypes: []string{"internal/noc.Mesh", "internal/dram.Memory", "internal/cache.NUCA"},
		// Read-only shared surfaces workers may touch concurrently; the
		// *Into accumulator methods are sanctioned by convention.
		SharedSafe: []string{
			"internal/noc.Mesh.Route",
			"internal/noc.Mesh.MCTile",
			"internal/noc.Mesh.Tile",
			"internal/noc.Mesh.Tiles",
			"internal/dram.Memory.MCOf",
			"internal/dram.Memory.Controllers",
			"internal/dram.Memory.BaseLatency",
			"internal/cache.NUCA.SliceOf",
			"internal/cache.NUCA.Probe",
		},
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
		reflectfmt{},
		keydrift{keyFile: cfg.KeyFile, roots: cfg.KeyRoots},
		unitsRule{dir: cfg.UnitsDir},
		errwrap{},
		apipair{min: cfg.APIPairMin},
		goroleak{pkgs: goro},
		approxflow{
			sources: parseTaintSpecs(cfg.ApproxSources),
			sinks:   parseTaintSpecs(cfg.ApproxSinks),
			caches:  parseTaintSpecs(cfg.ApproxCaches),
		},
		ctxflow{},
		lockscope{pkgs: locks},
		hotpath{roots: parseTaintSpecs(cfg.HotRoots)},
		sharestrict{
			workerRoots: parseTaintSpecs(cfg.WorkerRoots),
			shared:      parseTaintSpecs(cfg.SharedTypes),
			safe:        parseTaintSpecs(cfg.SharedSafe),
		},
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
