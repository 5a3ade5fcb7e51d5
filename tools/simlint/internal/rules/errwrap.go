package rules

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errwrap enforces how sentinel errors (package-level `var ErrX =
// errors.New(...)` values, like runner.ErrJobFailed and store.ErrCorrupt)
// are matched: with errors.Is — never compared with == / != and never
// matched by their message text. The campaign engine wraps every failure
// with attempt counts and job context; an == comparison or a string match
// silently stops matching the moment a wrapping layer is added, which is how
// retry/quarantine policy bugs are born. That the sentinels are wrapped with
// %w is not this rule's: a test holds every wrap site, since each one's
// caller matches it with errors.Is.
//
// Sentinels are the package-level Err*-named variables whose type
// implements error, collected across the module, so a comparison against an
// imported package's sentinel is caught in the importer too. Struct fields
// named Err are not sentinels; `oc.Err != nil` stays legal.
func errwrap(m *module, _ config, report reporter) {
	sentinels := map[types.Object]bool{}
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if ok && len(name) >= 4 && name[:3] == "Err" && types.Implements(v.Type(), errorIface) {
				sentinels[v] = true
			}
		}
	}
	for _, p := range m.pkgs {
		objectOf := func(e ast.Expr) types.Object {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				return p.info.Uses[e]
			case *ast.SelectorExpr:
				return p.info.Uses[e.Sel]
			}
			return nil
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if s := objectOf(pair[0]); sentinels[s] && !isNilIdent(p.info, pair[1]) {
							report(n.OpPos, "error compared to sentinel %s with %s; use errors.Is so wrapped errors still match", s.Name(), n.Op)
							break
						}
					}
					if isErrorTextMatch(p.info, n.X, n.Y) || isErrorTextMatch(p.info, n.Y, n.X) {
						report(n.OpPos, "error matched by message text; compare sentinels with errors.Is instead of Error() strings")
					}
				case *ast.CallExpr:
					checkStringsMatch(p.info, n, report)
				}
				return true
			})
		}
	}
}

// checkStringsMatch flags strings.Contains/HasPrefix/HasSuffix applied to an
// Error() result: matching by message text breaks as soon as a wrapping
// layer rewords the message.
func checkStringsMatch(info *types.Info, call *ast.CallExpr, report reporter) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "strings" {
		return
	}
	switch obj.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorCall(info, arg) {
			report(arg.Pos(), "error matched by message text via strings.%s; compare sentinels with errors.Is instead of Error() strings", obj.Name())
		}
	}
}

// isErrorTextMatch reports whether x is an Error() call compared against a
// constant string y.
func isErrorTextMatch(info *types.Info, x, y ast.Expr) bool {
	if !isErrorCall(info, x) {
		return false
	}
	tv, ok := info.Types[y]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String
}

// isErrorCall reports whether e is a call of the error interface's Error
// method.
func isErrorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	recv := info.TypeOf(sel.X)
	return recv != nil && types.Implements(recv, errorIface)
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
