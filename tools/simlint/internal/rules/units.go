package rules

import (
	"go/ast"
	"go/token"
	"go/types"
)

// units enforces dimensional consistency over the named quantity types
// declared in the configured units package (internal/units in this repo:
// Cycles, Bytes, BytesPerCycle, Picoseconds). Go's type system already
// rejects direct arithmetic between distinct named types; what it cannot see
// is the type-erased escape hatch, and that is where unit bugs hide. The
// rule flags, in every package of the module:
//
//   - additive arithmetic or comparison whose two operands trace to distinct
//     unit types through float64(...)-style erasing conversions, e.g.
//     float64(cycles) + float64(bytes). Multiplication and division are
//     never flagged — they legitimately change dimension.
//   - a direct conversion from one unit type to another, e.g.
//     Cycles(bytesVal): that reinterprets a quantity, it does not convert
//     it. Dimension changes go through a units helper, or explicitly
//     through a dimensionless float64 (Cycles(float64(b)) is the sanctioned
//     "I mean it" spelling).
//   - a bare numeric literal passed where a unit-typed parameter is
//     declared, e.g. mem.Access(core, pa, 64, false): the literal's unit is
//     invisible at the call site. Use a typed constant or an explicit
//     conversion.
//
// The unit type set is discovered from the units package itself (every
// package-level named type with a numeric underlying type), so the rule
// needs no hard-coded type list and works unchanged on fixture modules.
func units(m *module, cfg config, report reporter) {
	up := m.byRel[cfg.unitsDir]
	if cfg.unitsDir == "" || up == nil {
		return
	}
	w := &unitsWalker{set: collectUnitTypes(up.types), report: report}
	for _, p := range m.pkgs {
		w.info, w.pkg = p.info, p.types
		for _, f := range p.files {
			ast.Inspect(f, w.visit)
		}
	}
}

// collectUnitTypes gathers every package-level named type of pkg whose
// underlying type is numeric.
func collectUnitTypes(pkg *types.Package) map[*types.Named]bool {
	set := map[*types.Named]bool{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if b, ok := named.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
			set[named] = true
		}
	}
	return set
}

type unitsWalker struct {
	info   *types.Info    // of the package being walked
	pkg    *types.Package // the package being walked
	set    map[*types.Named]bool
	report reporter
}

func (w *unitsWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		w.checkBinary(n)
	case *ast.CallExpr:
		w.checkCall(n)
	}
	return true
}

// additiveOps are the operators that require both operands to share a
// dimension. MUL/QUO are absent by design: they change dimension.
var additiveOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

func (w *unitsWalker) checkBinary(b *ast.BinaryExpr) {
	if !additiveOps[b.Op] {
		return
	}
	x, y := w.provenance(b.X), w.provenance(b.Y)
	if x == nil || y == nil || x == y {
		return
	}
	w.report(b.OpPos, "%s mixes units %s and %s; same-dimension math stays in one unit type, dimension changes go through a units helper",
		b.Op, w.typeName(x), w.typeName(y))
}

func (w *unitsWalker) checkCall(call *ast.CallExpr) {
	info := w.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: unit -> unit reinterprets the quantity.
		if len(call.Args) != 1 {
			return
		}
		target := w.unitNamed(tv.Type)
		if target == nil {
			return
		}
		src := w.unitNamed(info.TypeOf(call.Args[0]))
		if src != nil && src != target {
			w.report(call.Pos(), "conversion reinterprets %s as %s; use a units helper, or spell out %s(float64(...)) if the reinterpretation is intended",
				w.typeName(src), w.typeName(target), w.typeName(target))
		}
		return
	}
	t := info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, not individual elements
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		named := w.unitNamed(pt)
		if named == nil {
			continue
		}
		if lit := bareLiteral(arg); lit != nil {
			w.report(arg.Pos(), "bare literal %s crosses the %s unit boundary; pass a typed constant or write %s(%s)",
				lit.Value, w.typeName(named), w.typeName(named), lit.Value)
		}
	}
}

// provenance traces an expression to the unit type it carries, following
// through erasing conversions: float64(c) still "is" Cycles for mixing
// purposes, because the erased value recombining with a different unit is
// exactly the bug class this rule exists for.
func (w *unitsWalker) provenance(e ast.Expr) *types.Named {
	e = ast.Unparen(e)
	info := w.info
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			if n := w.unitNamed(tv.Type); n != nil {
				return n
			}
			return w.provenance(call.Args[0])
		}
	}
	return w.unitNamed(info.TypeOf(e))
}

func (w *unitsWalker) unitNamed(t types.Type) *types.Named {
	if n, ok := t.(*types.Named); ok && w.set[n] {
		return n
	}
	return nil
}

func (w *unitsWalker) typeName(n *types.Named) string {
	return types.TypeString(n, types.RelativeTo(w.pkg))
}

// bareLiteral unwraps parentheses and numeric sign down to a basic literal,
// or nil when the expression names its value (identifier, selector,
// conversion, ...).
func bareLiteral(e ast.Expr) *ast.BasicLit {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.ADD && v.Op != token.SUB {
				return nil
			}
			e = v.X
		case *ast.BasicLit:
			return v
		default:
			return nil
		}
	}
}
