package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// load parses one file worth of source and returns its functions by name.
func load(t *testing.T, src string) map[string]*ast.FuncDecl {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	funcs := map[string]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			funcs[fd.Name.Name] = fd
		}
	}
	return funcs
}

const cfgSrc = `package p

func r() bool { return true }

func shapes(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue
		}
		total += i
	}
	switch n {
	case 1:
		total++
	case 2:
		total--
		fallthrough
	case 3:
		total *= 2
	default:
		total = 0
	}
loop:
	for {
		for r() {
			break loop
		}
	}
	return total
}

func selects(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
	}
	select {
	case v := <-ch:
		return v
	}
}
`

func TestCFGShapes(t *testing.T) {
	funcs := load(t, cfgSrc)
	g := Build(funcs["shapes"].Body)
	if g.Entry == nil || g.Exit == nil || len(g.Blocks) < 5 {
		t.Fatalf("implausible CFG: %d blocks", len(g.Blocks))
	}
	if len(g.Exit.Preds) == 0 {
		t.Errorf("exit block unreachable")
	}
	// Every successor edge must have a matching predecessor edge.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Errorf("block %d -> %d has no reverse edge", b.Index, s.Index)
			}
		}
	}
}

func TestCFGSelectMetadata(t *testing.T) {
	funcs := load(t, cfgSrc)
	g := Build(funcs["selects"].Body)
	var withDefault, without int
	for _, has := range g.SelectHasDefault {
		if has {
			withDefault++
		} else {
			without++
		}
	}
	if withDefault != 1 || without != 1 {
		t.Errorf("SelectHasDefault = %d with / %d without, want 1/1", withDefault, without)
	}
	if len(g.Comm) != 2 {
		t.Errorf("recorded %d comm statements, want 2", len(g.Comm))
	}
}
