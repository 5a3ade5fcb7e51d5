// Module loading: parse and type-check every package of the module under
// analysis using only the standard library.
//
// The loader walks the module tree, parses each package directory with
// go/parser (comments retained — suppressions live in them), and
// type-checks with go/types. Imports inside the module are resolved
// recursively through the loader itself; standard-library imports are
// resolved by the toolchain's source importer, which compiles export
// information from $GOROOT/src and therefore works offline. Third-party
// imports are unsupported by design: the module is dependency-free and the
// linter enforces its invariants, not the ecosystem's.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Rel   string // module-relative directory; "" is the module root package
	Path  string // import path
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Module is the fully loaded module: every package type-checked against a
// shared FileSet.
type Module struct {
	Root string // absolute module root
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by Rel

	// Order lists the packages in type-check completion order, which is a
	// topological order of the import graph: a package always appears after
	// everything it imports. An analyzer that summarizes a package for its
	// importers visits packages in this order.
	Order []*Package

	byRel map[string]*Package
}

// Lookup returns the package in the module-relative directory rel, or nil.
func (m *Module) Lookup(rel string) *Package { return m.byRel[rel] }

// RelFile renders an absolute file position path relative to the module
// root, for stable, machine-independent output.
func (m *Module) RelFile(filename string) string {
	if rel, err := filepath.Rel(m.Root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// LoadModule parses and type-checks every package under root. It fails on
// the first parse or type error: the linter only runs on trees that build.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("simlint: %s is not a module root: %w", abs, err)
	}
	match := moduleLineRE.FindSubmatch(gomod)
	if match == nil {
		return nil, fmt.Errorf("simlint: no module line in %s/go.mod", abs)
	}
	mod := &Module{
		Root:  abs,
		Path:  string(match[1]),
		Fset:  token.NewFileSet(),
		byRel: map[string]*Package{},
	}
	l := &loader{
		mod:     mod,
		std:     importer.ForCompiler(mod.Fset, "source", nil),
		loading: map[string]bool{},
	}

	var rels []string
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			rel, err := filepath.Rel(abs, filepath.Dir(path))
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			rels = append(rels, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	rels = dedupe(rels)
	for _, rel := range rels {
		if _, err := l.load(rel); err != nil {
			return nil, err
		}
	}
	mod.Order = append([]*Package(nil), mod.Pkgs...)
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Rel < mod.Pkgs[j].Rel })
	return mod, nil
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// loader resolves imports: module-internal paths recursively through load,
// everything else through the toolchain source importer.
type loader struct {
	mod     *Module
	std     types.Importer
	loading map[string]bool
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.mod.Path), "/")
		p, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in the module-relative directory
// rel, memoized on the Module. A package is appended to Module.Pkgs only
// after its imports finished loading, so the append order is topological.
func (l *loader) load(rel string) (*Package, error) {
	if p, ok := l.mod.byRel[rel]; ok {
		return p, nil
	}
	if l.loading[rel] {
		return nil, fmt.Errorf("simlint: import cycle through %q", rel)
	}
	l.loading[rel] = true
	defer func() { delete(l.loading, rel) }()

	dir := filepath.Join(l.mod.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.mod.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("simlint: no Go files in %s", dir)
	}

	importPath := l.mod.Path
	if rel != "" {
		importPath += "/" + rel
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.mod.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("simlint: type-checking %s: %w", importPath, err)
	}
	p := &Package{Rel: rel, Path: importPath, Files: files, Pkg: pkg, Info: info}
	l.mod.byRel[rel] = p
	l.mod.Pkgs = append(l.mod.Pkgs, p)
	return p, nil
}
