package rules

import "slices"

// wallclock flags wall-clock and ambient-randomness sources inside a
// deterministic package: time.Now / time.Since, and any use of math/rand or
// math/rand/v2. Simulated results must be a pure function of the design
// point and the seed; the only sanctioned randomness source is
// internal/xrand (seeded, stable across Go releases), and the only
// sanctioned wall-clock sites are timing measurements that feed
// Result.WallClock-style reporting fields — those are annotated with
// //simlint:ignore wallclock <reason>.
func wallclock(m *module, cfg config, report reporter) {
	for _, p := range m.pkgs {
		if !slices.Contains(cfg.det, p.rel) {
			continue
		}
		// Info.Uses is a map, but findings are sorted by position before
		// rendering, so iteration order cannot leak into the output.
		for id, obj := range p.info.Uses {
			switch pkg := obj.Pkg(); {
			case pkg == nil:
			case pkg.Path() == "time" && (obj.Name() == "Now" || obj.Name() == "Since"):
				report(id.Pos(), "time.%s in a deterministic package: the wall clock must never influence simulated state; timing-measurement sites need //simlint:ignore wallclock <reason>",
					obj.Name())
			case pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2":
				report(id.Pos(), "%s.%s: math/rand streams are not stable across Go releases and the global source is process-wide state; use internal/xrand",
					pkg.Path(), obj.Name())
			}
		}
	}
}
