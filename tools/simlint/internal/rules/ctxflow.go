package rules

import (
	"go/ast"
	"go/types"
)

// ctxflow keeps root contexts at the top of the program.
// context.Background() (and TODO()) is only legitimate in package main.
// Anywhere else a fresh root context severs the caller's cancellation
// chain: the engine keeps simulating after the campaign is cancelled, the
// store keeps journaling after shutdown. The rule is purely syntactic —
// every call that mints a root context outside package main is a finding,
// whether it is passed on directly, derived from (WithCancel), captured by
// a goroutine or parked in a struct field for a later call to pick up.
func ctxflow(m *module, _ config, report reporter) {
	for _, p := range m.pkgs {
		if p.types.Name() == "main" {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isRootContextCall(p.info, call) {
					report(call.Pos(), "%s outside package main severs the caller's cancellation chain; thread the caller's context through",
						types.ExprString(call))
				}
				return true
			})
		}
	}
}

// isRootContextCall reports whether call is context.Background() or
// context.TODO().
func isRootContextCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}
