package rules

import (
	"go/ast"
	"go/types"
)

// ctxflow keeps root contexts at the top of the program.
// context.Background() (and TODO()) is only legitimate in package main, or
// in the sanctioned convenience wrappers whose entire body is delegation to
// their XContext twin. Anywhere else a fresh root context severs the
// caller's cancellation chain: the engine keeps simulating after the
// campaign is cancelled, the store keeps journaling after shutdown. The
// rule is purely syntactic — every call that mints a root context outside
// those two places is a finding, whether it is passed on directly, derived
// from (WithCancel), captured by a goroutine or parked in a struct field
// for a later call to pick up.
func ctxflow(m *module, _ config, report reporter) {
	for _, p := range m.pkgs {
		if p.types.Name() == "main" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && isBackgroundWrapper(p.info, fd) {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && isRootContextCall(p.info, call) {
						report(call.Pos(), "%s outside package main severs the caller's cancellation chain; thread the caller's context through (only a single-statement X → XContext wrapper may mint a root context)",
							types.ExprString(call))
					}
					return true
				})
			}
		}
	}
}

// isRootContextCall reports whether expr is context.Background() or
// context.TODO().
func isRootContextCall(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// isBackgroundWrapper reports whether a declaration is a sanctioned
// convenience wrapper: a function X whose whole body is one statement
// delegating to XContext with a root context as the first argument.
func isBackgroundWrapper(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return false
	}
	var call *ast.CallExpr
	switch s := fd.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(s.Results) != 1 {
			return false
		}
		call, _ = ast.Unparen(s.Results[0]).(*ast.CallExpr)
	case *ast.ExprStmt:
		call, _ = ast.Unparen(s.X).(*ast.CallExpr)
	}
	if call == nil || len(call.Args) == 0 {
		return false
	}
	fn := calleeOf(info, call)
	return fn != nil && fn.Name() == fd.Name.Name+"Context" && isRootContextCall(info, call.Args[0])
}
