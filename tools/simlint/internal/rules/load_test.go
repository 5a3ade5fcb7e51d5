package rules

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
		// The root package imports a subpackage, so the topological order
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

	m, err := loadModule(root)
	if err != nil {
		t.Fatalf("loadModule: %v", err)
	}
	if m.path != "demo" {
		t.Errorf("module path = %q, want demo", m.path)
	}
	var rels []string
	for _, p := range m.pkgs {
		rels = append(rels, p.rel)
	}
	if want := []string{"inner", ""}; strings.Join(rels, ",") != strings.Join(want, ",") {
		t.Errorf("loaded packages %v, want [inner <root>]: imports come first, and testdata, dot and underscore dirs are skipped", rels)
	}
	if p := m.byRel["inner"]; p == nil || p.path != "demo/inner" {
		t.Errorf("byRel[inner] = %+v, want import path demo/inner", p)
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
	m, err := loadModule(root)
	if err != nil {
		t.Fatalf("loadModule: %v", err)
	}
	for _, f := range m.pkgs[0].files {
		name := filepath.Base(m.fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("loaded test file %s", name)
		}
	}
}

func TestLoadModuleRequiresModuleRoot(t *testing.T) {
	if _, err := loadModule(t.TempDir()); err == nil {
		t.Fatal("loadModule on a directory without go.mod succeeded, want error")
	} else if !strings.Contains(err.Error(), "not a module root") {
		t.Errorf("error = %v, want a 'not a module root' diagnosis", err)
	}
}

func TestLoadModuleRequiresModuleLine(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"go.mod": "go 1.22\n"})
	if _, err := loadModule(root); err == nil {
		t.Fatal("loadModule without a module line succeeded, want error")
	} else if !strings.Contains(err.Error(), "no module line") {
		t.Errorf("error = %v, want a 'no module line' diagnosis", err)
	}
}
