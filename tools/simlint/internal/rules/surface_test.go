package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed lists the only names under internal/ that may exist with no
// use in non-test code, each with the reason it stays. An entry that names
// nothing, or names something the program does use, fails the gate too.
var surfaceAllowed = map[string]string{
	"internal/cpu.(*Core).ResetStats": "TestSplitMatchesMonolith's oracle resets its cpu.Core statistics at the end of warm-up",
	"internal/surrogate.(*Surrogate).Fingerprint": "TestCrossProcessModelDeterminism's observable; in a _test.go it would " +
		"orphan ml's WriteCanonical pair, which another package's test file cannot reach",
}

// checkSurface holds "non-test code calls it, or it is not in the program":
// every function, method and package-level name declared under internal/ must
// be used by non-test code somewhere in the module (bench/, cmd/, examples/
// and the root package count as callers; the root package and api/v1 are the
// public surface and are not policed). A use inside the declaration itself —
// for a type, inside its own methods — does not count. The module was loaded
// without its _test.go files, so "used" already means "used by the program".
func checkSurface(t *testing.T, m *module) {
	type span struct{ pos, end token.Pos }
	type decl struct {
		name string
		own  []span // the declaration's own extent(s)
	}
	decls := map[types.Object]*decl{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		add := func(id *ast.Ident, name string, node ast.Node) {
			if id.Name != "_" {
				decls[p.info.Defs[id]] = &decl{p.rel + "." + name, []span{{node.Pos(), node.End()}}}
			}
		}
		var methods []*ast.FuncDecl
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv != nil:
						methods = append(methods, d)
					case d.Name.Name != "init":
						add(d.Name, d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
		for _, d := range methods {
			add(d.Name, "("+types.ExprString(d.Recv.List[0].Type)+")."+d.Name.Name, d)
			// A type's methods are part of the type's own extent.
			recv := p.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				if td := decls[named.Obj()]; td != nil {
					td.own = append(td.own, span{d.Pos(), d.End()})
				}
			}
		}
	}

	used := map[types.Object]bool{}
	// fmt calls String through its own Stringer, named in the module or not.
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false))}, nil)
	ifaces := map[*types.Interface]bool{stringer.Complete(): true}
	for _, p := range m.pkgs {
	uses:
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			d := decls[obj]
			if d == nil {
				continue
			}
			for _, s := range d.own {
				if s.pos <= id.Pos() && id.Pos() < s.end {
					continue uses
				}
			}
			used[obj] = true
		}
		for _, tv := range p.info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces[iface] = true
			}
		}
	}
	// A method that an interface named in the module lists (error among
	// them), or fmt.Stringer, is called through it.
	for obj := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || used[obj] || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		for iface := range ifaces {
			for i := 0; i < iface.NumMethods() && !used[obj]; i++ {
				used[obj] = iface.Method(i).Name() == fn.Name() && types.Implements(recv, iface)
			}
		}
	}

	var unused []string
	stale := map[string]bool{}
	for name := range surfaceAllowed {
		stale[name] = true
	}
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if surfaceAllowed[d.name] == "" {
			unused = append(unused, d.name)
		}
		delete(stale, d.name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s has no use in non-test code: delete it with the tests whose only subject it is, or move it to a _test.go file", name)
	}
	for name := range stale {
		t.Errorf("allow-list entry %s names nothing unused under internal/: remove it", name)
	}
}
