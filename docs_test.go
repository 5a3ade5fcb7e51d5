package scalesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteRealNames holds the prose docs to the code they cite: every
// backticked test, fuzzer or benchmark name in DESIGN.md, README.md and
// EXPERIMENTS.md is declared in some _test.go of the module, every
// scalesim.X they cite is an exported top-level declaration of this
// package, and every DESIGN.md section a Go comment cites by its quoted
// title is the start of a DESIGN.md heading. A renamed test, a deleted API
// name or a retitled section fails here instead of leaving a reader to
// search for what no longer exists.
func TestDocsCiteRealNames(t *testing.T) {
	declared := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	citeRE := regexp.MustCompile(`DESIGN\.md,? "([^"]+)"`)
	fset := token.NewFileSet()
	type cite struct{ file, section string }
	var cites []cite
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcRE.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := strings.Join(strings.Fields(cg.Text()), " ")
			for _, m := range citeRE.FindAllStringSubmatch(text, -1) {
				cites = append(cites, cite{path, m[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	api := exportedAPI(t, fset)
	nameRE := regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_]\\w*)")
	apiRE := regexp.MustCompile(`scalesim\.([A-Z]\w*)`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range nameRE.FindAllSubmatch(src, -1) {
			if !declared[string(m[1])] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, m[1])
			}
		}
		for _, m := range apiRE.FindAllSubmatch(src, -1) {
			if !api[string(m[1])] {
				t.Errorf("%s cites scalesim.%s, which the package does not declare", doc, m[1])
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "#") {
			headings = append(headings, strings.TrimLeft(line, "# "))
		}
	}
	for _, c := range cites {
		found := false
		for _, h := range headings {
			found = found || strings.HasPrefix(h, c.section)
		}
		if !found {
			t.Errorf("%s cites DESIGN.md, %q, which no DESIGN.md heading starts with", c.file, c.section)
		}
	}
}

// exportedAPI returns the exported top-level names this package's non-test
// files declare: functions, types, constants and variables.
func exportedAPI(t *testing.T, fset *token.FileSet) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	add := func(id *ast.Ident) { names[id.Name] = id.IsExported() }
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n)
						}
					}
				}
			}
		}
	}
	return names
}
