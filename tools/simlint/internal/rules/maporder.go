package rules

import (
	"go/ast"
	"go/types"

	"scalesim/tools/simlint/internal/analysis"
)

// maporder flags `range` over a map type inside a deterministic package.
// Go randomises map iteration order per process, so any map range whose
// body's effect depends on visit order — appending to a slice, consuming an
// RNG, returning the first error, accumulating floats that later differ in
// rounding — makes two runs of the same design point diverge. Iterate a
// sorted key slice instead, or suppress with a justification explaining why
// order provably cannot leak (e.g. the body only writes into another map
// under the same key).
type maporder struct {
	det map[string]bool
}

func (maporder) Name() string { return "maporder" }

func (a maporder) Run(m *analysis.Module) []analysis.Finding {
	var out []analysis.Finding
	for _, p := range m.Pkgs {
		if !a.det[p.Rel] {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					out = append(out, finding(m, rs.Pos(), a.Name(),
						"range over %s has nondeterministic iteration order in a deterministic package; iterate sorted keys, or suppress with why order cannot leak",
						types.TypeString(t, types.RelativeTo(p.Pkg))))
				}
				return true
			})
		}
	}
	return out
}
