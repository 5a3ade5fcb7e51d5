package rules

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"scalesim/tools/simlint/internal/analysis"
)

// errwrap enforces the sentinel-error discipline: sentinels (package-level
// `var ErrX = errors.New(...)` values, like runner.ErrJobFailed and
// store.ErrCorrupt) must be wrapped with %w and matched with errors.Is —
// never compared with == / != and never matched by their message text. The
// campaign engine wraps every failure with attempt counts and job context;
// an == comparison or a string match silently stops matching the moment a
// wrapping layer is added, which is how retry/quarantine policy bugs are
// born.
//
// Sentinels are discovered per package (package-level Err*-named variables
// whose type implements error) and exported as facts, so comparisons against
// an imported package's sentinel are caught in the importer too. Struct
// fields named Err are not sentinels; `oc.Err != nil` stays legal.
type errwrap struct{}

func (errwrap) Name() string { return "errwrap" }

const errwrapFactKey = "sentinels"

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func (a errwrap) Run(pass *analysis.Pass) []analysis.Finding {
	p := pass.Pkg

	own := map[types.Object]bool{}
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok || len(name) < 4 || name[:3] != "Err" {
			continue
		}
		if types.Implements(v.Type(), errorIface) {
			own[v] = true
		}
	}
	pass.ExportFact(errwrapFactKey, own)

	sentinels := map[types.Object]bool{}
	for o := range own {
		sentinels[o] = true
	}
	for _, imp := range p.Pkg.Imports() {
		if v, ok := pass.ImportFact(imp.Path(), errwrapFactKey); ok {
			for o := range v.(map[types.Object]bool) {
				sentinels[o] = true
			}
		}
	}
	if len(sentinels) == 0 {
		return nil
	}

	var out []analysis.Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, analysis.Finding{
			Pos:  pass.Module.Fset.Position(pos),
			Rule: a.Name(),
			Msg:  fmt.Sprintf(format, args...),
		})
	}
	sentinelOf := func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := p.Info.Uses[e]; o != nil && sentinels[o] {
				return o
			}
		case *ast.SelectorExpr:
			if o := p.Info.Uses[e.Sel]; o != nil && sentinels[o] {
				return o
			}
		}
		return nil
	}

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
					s, other := sentinelOf(pair[0]), pair[1]
					if s == nil || isNilIdent(p.Info, other) {
						continue
					}
					report(n.OpPos, "error compared to sentinel %s with %s; use errors.Is so wrapped errors still match", s.Name(), n.Op)
					break
				}
				if isErrorTextMatch(p.Info, n.X, n.Y) || isErrorTextMatch(p.Info, n.Y, n.X) {
					report(n.OpPos, "error matched by message text; compare sentinels with errors.Is instead of Error() strings")
				}
			case *ast.CallExpr:
				a.checkErrorf(pass, n, sentinelOf, report)
				a.checkStringsMatch(pass, n, report)
			}
			return true
		})
	}
	return out
}

// checkErrorf flags a sentinel passed to fmt.Errorf under any verb but %w.
func (errwrap) checkErrorf(pass *analysis.Pass, call *ast.CallExpr, sentinelOf func(ast.Expr) types.Object, report func(token.Pos, string, ...any)) {
	p := pass.Pkg
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" || obj.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	refs := verbRefs(constant.StringVal(tv.Value))
	for i, arg := range call.Args[1:] {
		s := sentinelOf(arg)
		if s == nil {
			continue
		}
		for _, ref := range refs {
			if ref.arg != i {
				continue
			}
			if ref.verb != 'w' {
				report(arg.Pos(), "sentinel %s passed to fmt.Errorf with %%%s%c; wrap with %%w so errors.Is can match through the wrapper", s.Name(), ref.flags, ref.verb)
			}
			break
		}
	}
}

// checkStringsMatch flags strings.Contains/HasPrefix/HasSuffix applied to an
// Error() result: matching by message text breaks as soon as a wrapping
// layer rewords the message.
func (a errwrap) checkStringsMatch(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	p := pass.Pkg
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "strings" {
		return
	}
	switch obj.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorCall(p.Info, arg) {
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
