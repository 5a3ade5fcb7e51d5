package rules

import "scalesim/tools/simlint/internal/analysis"

// wallclock flags wall-clock and ambient-randomness sources inside a
// deterministic package: time.Now / time.Since, and any use of math/rand or
// math/rand/v2. Simulated results must be a pure function of the design
// point and the seed; the only sanctioned randomness source is
// internal/xrand (seeded, stable across Go releases), and the only
// sanctioned wall-clock sites are timing measurements that feed
// Result.WallClock-style reporting fields — those are annotated with
// //simlint:ignore wallclock <reason>.
type wallclock struct {
	det map[string]bool
}

func (wallclock) Name() string { return "wallclock" }

func (a wallclock) Run(m *analysis.Module) []analysis.Finding {
	var out []analysis.Finding
	for _, p := range m.Pkgs {
		if !a.det[p.Rel] {
			continue
		}
		// Info.Uses is a map, but findings are sorted by position before
		// rendering, so iteration order cannot leak into the output.
		for id, obj := range p.Info.Uses {
			pkg := obj.Pkg()
			if pkg == nil {
				continue
			}
			switch pkg.Path() {
			case "time":
				if obj.Name() == "Now" || obj.Name() == "Since" {
					out = append(out, finding(m, id.Pos(), a.Name(),
						"time.%s in a deterministic package: the wall clock must never influence simulated state; timing-measurement sites need //simlint:ignore wallclock <reason>",
						obj.Name()))
				}
			case "math/rand", "math/rand/v2":
				out = append(out, finding(m, id.Pos(), a.Name(),
					"%s.%s: math/rand streams are not stable across Go releases and the global source is process-wide state; use internal/xrand",
					pkg.Path(), obj.Name()))
			}
		}
	}
	return out
}
