package rules

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"scalesim/tools/simlint/internal/analysis"
)

// keydrift cross-checks struct field sets against the canonical cache-key
// encoder. The campaign engine memoizes simulations under a key that must
// encode every semantic field of the design point (machine configuration,
// workload profiles, simulation options); a field added to one of those
// structs without extending the encoder silently aliases distinct design
// points to the same cached result. keydrift makes that a build failure:
// starting from the configured root structs (transitively including
// struct-typed fields reached through pointers, slices and arrays, within
// this module), every field must be read somewhere in the key file.
// Deliberately non-semantic fields are suppressed at their declaration with
// //simlint:ignore keydrift <why the field is not part of the key>.
//
// keydrift is a ModuleAnalyzer: it cross-checks one file against type
// declarations spread across the whole module, so a per-package pass has no
// natural unit of work.
type keydrift struct {
	keyFile string   // module-relative path of the encoder file
	roots   []string // "<module-relative pkg dir>.<TypeName>"
}

func (keydrift) Name() string { return "keydrift" }

func (a keydrift) RunModule(m *analysis.Module) []analysis.Finding {
	if a.keyFile == "" || len(a.roots) == 0 {
		return nil
	}
	keyAbs := filepath.Join(m.Root, filepath.FromSlash(a.keyFile))

	watched := map[*types.Named]bool{}
	var queue []*types.Named
	var out []analysis.Finding
	for _, root := range a.roots {
		dot := strings.LastIndex(root, ".")
		if dot < 0 {
			out = append(out, analysis.Finding{Rule: a.Name(),
				Msg: fmt.Sprintf("bad key root %q: want <package dir>.<TypeName>", root)})
			continue
		}
		rel, name := root[:dot], root[dot+1:]
		pkg := m.ByRel(rel)
		if pkg == nil {
			out = append(out, analysis.Finding{Rule: a.Name(),
				Msg: fmt.Sprintf("key root %q: package directory %q not found in module", root, rel)})
			continue
		}
		obj := pkg.Pkg.Scope().Lookup(name)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			out = append(out, analysis.Finding{Rule: a.Name(),
				Msg: fmt.Sprintf("key root %q: no type %s in package %s", root, name, pkg.Path)})
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			queue = append(queue, named)
		}
	}

	// Expand roots to every module-local struct reachable through fields.
	inModule := func(named *types.Named) bool {
		p := named.Obj().Pkg()
		return p != nil && (p.Path() == m.Path || strings.HasPrefix(p.Path(), m.Path+"/"))
	}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if watched[named] || !inModule(named) {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		watched[named] = true
		for i := 0; i < st.NumFields(); i++ {
			if next := namedStructOf(st.Field(i).Type()); next != nil {
				queue = append(queue, next)
			}
		}
	}

	// Record every field read of a watched struct inside the key file.
	reads := map[*types.Named]map[string]bool{}
	sawKeyFile := false
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			if m.Fset.Position(f.Pos()).Filename != keyAbs {
				continue
			}
			sawKeyFile = true
			ast.Inspect(f, func(n ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sel := p.Info.Selections[se]
				if sel == nil || sel.Kind() != types.FieldVal {
					return true
				}
				recv := sel.Recv()
				if ptr, ok := recv.Underlying().(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || !watched[named] {
					return true
				}
				if reads[named] == nil {
					reads[named] = map[string]bool{}
				}
				reads[named][se.Sel.Name] = true
				return true
			})
		}
	}
	if !sawKeyFile {
		out = append(out, analysis.Finding{Rule: a.Name(),
			Msg: fmt.Sprintf("key file %s not found in module; keydrift cannot verify the encoder", a.keyFile)})
		return out
	}

	// Every field of every watched struct must be read by the encoder.
	var names []*types.Named
	for named := range watched {
		names = append(names, named)
	}
	sort.Slice(names, func(i, j int) bool {
		return names[i].Obj().Pkg().Path()+"."+names[i].Obj().Name() <
			names[j].Obj().Pkg().Path()+"."+names[j].Obj().Name()
	})
	for _, named := range names {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if reads[named][field.Name()] {
				continue
			}
			out = append(out, analysis.Finding{
				Pos:  m.Fset.Position(field.Pos()),
				Rule: a.Name(),
				Msg: fmt.Sprintf("field %s.%s is never read by the canonical key encoder (%s): encode it (and update the pinned key fixture) or suppress with why it is not semantic",
					named.Obj().Name(), field.Name(), a.keyFile),
			})
		}
	}
	return out
}

// namedStructOf unwraps pointers, slices and arrays down to a named struct
// type, or nil when the field's type does not lead to one.
func namedStructOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u
			}
			return nil
		default:
			return nil
		}
	}
}
