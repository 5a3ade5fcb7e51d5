package rules

import (
	"go/ast"
	"go/types"
	"slices"
)

// maporder flags `range` over a map type inside a deterministic package.
// Go randomises map iteration order per process, so any map range whose
// body's effect depends on visit order — appending to a slice, consuming an
// RNG, returning the first error, accumulating floats that later differ in
// rounding — makes two runs of the same design point diverge. Iterate a
// sorted key slice instead, or suppress with a justification explaining why
// order provably cannot leak (e.g. the body only writes into another map
// under the same key).
func maporder(m *module, cfg config, report reporter) {
	for _, p := range m.pkgs {
		if !slices.Contains(cfg.det, p.rel) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					if t := p.info.TypeOf(rs.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							report(rs.Pos(), "range over %s has nondeterministic iteration order in a deterministic package; iterate sorted keys, or suppress with why order cannot leak",
								types.TypeString(t, types.RelativeTo(p.types)))
						}
					}
				}
				return true
			})
		}
	}
}
