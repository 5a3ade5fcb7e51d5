package rules

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
	"strings"
)

// pkg is one type-checked package of the module under analysis.
type pkg struct {
	rel   string // module-relative directory; "" is the module root package
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is the fully loaded module: every non-test package type-checked
// against one FileSet.
type module struct {
	root string // absolute module root
	path string // module path from go.mod
	fset *token.FileSet
	// pkgs lists the packages in type-check completion order, which is a
	// topological order of the import graph: a package always appears after
	// everything it imports, so a rule that summarizes a package for its
	// importers visits them in this order.
	pkgs  []*pkg
	byRel map[string]*pkg // nil for a directory with no Go files
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// skipped reports whether a directory or file is outside the module's
// program: testdata, and names starting with "." or "_", as for go build.
func skipped(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// loadModule parses and type-checks every package under root. It fails on
// the first parse or type error: the linter only runs on trees that build.
func loadModule(root string) (*module, error) {
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
	m := &module{root: abs, path: string(match[1]), fset: token.NewFileSet(), byRel: map[string]*pkg{}}
	l := &loader{mod: m, std: importer.ForCompiler(m.fset, "source", nil), loading: map[string]bool{}}
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != abs && skipped(d.Name()) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(abs, path) // path is under abs
		if rel == "." {
			rel = ""
		}
		_, err = l.load(filepath.ToSlash(rel))
		return err
	})
	return m, err
}

// loader resolves imports: module-internal paths recursively through load,
// everything else through the toolchain source importer.
type loader struct {
	mod     *module
	std     types.Importer
	loading map[string]bool
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.mod.path && !strings.HasPrefix(path, l.mod.path+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(strings.TrimPrefix(strings.TrimPrefix(path, l.mod.path), "/"))
	if err == nil && p == nil {
		err = fmt.Errorf("simlint: no Go files in %s", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the package in the module-relative directory
// rel, memoized on the module; a directory with no Go files is nil. A
// package is appended to module.pkgs only after its imports finished
// loading, so the append order is topological.
func (l *loader) load(rel string) (*pkg, error) {
	if p, ok := l.mod.byRel[rel]; ok {
		return p, nil
	}
	if l.loading[rel] {
		return nil, fmt.Errorf("simlint: import cycle through %q", rel)
	}
	l.loading[rel] = true
	defer delete(l.loading, rel)

	dir := filepath.Join(l.mod.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || skipped(name) {
			continue
		}
		f, err := parser.ParseFile(l.mod.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.mod.byRel[rel] = nil
		return nil, nil
	}

	importPath := l.mod.path
	if rel != "" {
		importPath += "/" + rel
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(importPath, l.mod.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("simlint: type-checking %s: %w", importPath, err)
	}
	p := &pkg{rel: rel, path: importPath, files: files, types: tp, info: info}
	l.mod.byRel[rel] = p
	l.mod.pkgs = append(l.mod.pkgs, p)
	return p, nil
}
