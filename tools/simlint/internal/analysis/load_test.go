package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a throwaway module for loader tests. Deliberately
// unparsable content in the skipped locations proves they are skipped: the
// loader fails on the first parse error, so loading succeeds only if those
// files were never opened.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadModule(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		// The root package imports a subpackage, so the topological Order
		// must list inner before the root even though the walk finds the
		// root first.
		"a.go":             "package demo\n\nimport \"demo/inner\"\n\nconst Root = inner.V\n",
		"inner/inner.go":   "package inner\n\nconst V = 1\n",
		"a_test.go":        "package demo\n\nthis is not Go",
		"inner/_draft.go":  "neither is this",
		"inner/.hidden.go": "nor this",
		"testdata/x/x.go":  "package x\n\nbroken(",
		".git/g.go":        "package g\n\nbroken(",
		"_attic/old.go":    "package old\n\nbroken(",
		"docs/notes.txt":   "not Go at all",
	})

	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if m.Path != "demo" {
		t.Errorf("module path = %q, want demo", m.Path)
	}
	var rels []string
	for _, p := range m.Pkgs {
		rels = append(rels, p.Rel)
	}
	if want := []string{"", "inner"}; strings.Join(rels, ",") != strings.Join(want, ",") {
		t.Errorf("loaded packages %v, want %v (testdata, dot and underscore dirs skipped)", rels, want)
	}
	if len(m.Order) != 2 || m.Order[0].Rel != "inner" || m.Order[1].Rel != "" {
		var order []string
		for _, p := range m.Order {
			order = append(order, p.Rel)
		}
		t.Errorf("Order = %v, want [inner <root>]: imports must come first", order)
	}
	if p := m.Lookup("inner"); p == nil || p.Path != "demo/inner" {
		t.Errorf("Lookup(inner) = %+v, want import path demo/inner", p)
	}
	if got := m.RelFile(filepath.Join(m.Root, "inner", "inner.go")); got != "inner/inner.go" {
		t.Errorf("RelFile = %q, want inner/inner.go", got)
	}
	if got := m.RelFile("/elsewhere/file.go"); got != "/elsewhere/file.go" {
		t.Errorf("RelFile outside the module = %q, want the path unchanged", got)
	}
}

func TestLoadModuleExcludesTestFiles(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a.go":   "package demo\n\nconst A = 1\n",
		// Would fail to type-check if loaded: _test.go files are out of
		// scope by design.
		"a_test.go": "package demo\n\nconst A = redeclared\n",
	})
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, f := range m.Pkgs[0].Files {
		name := filepath.Base(m.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loaded test file %s", name)
		}
	}
}

func TestLoadModuleRequiresModuleRoot(t *testing.T) {
	if _, err := LoadModule(t.TempDir()); err == nil {
		t.Fatal("LoadModule on a directory without go.mod succeeded, want error")
	} else if !strings.Contains(err.Error(), "not a module root") {
		t.Errorf("error = %v, want a 'not a module root' diagnosis", err)
	}
}

func TestLoadModuleRequiresModuleLine(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"go.mod": "go 1.22\n"})
	if _, err := LoadModule(root); err == nil {
		t.Fatal("LoadModule without a module line succeeded, want error")
	} else if !strings.Contains(err.Error(), "no module line") {
		t.Errorf("error = %v, want a 'no module line' diagnosis", err)
	}
}
