package rules

import (
	"go/ast"
	"go/types"
	"slices"
)

// goroleak enforces concurrency hygiene in the configured packages (the
// campaign runner and the durable store): every `go` statement must spawn
// work that is joined through a sync.WaitGroup (Done inside the goroutine,
// Add in the spawning function), and the spawning function must accept a
// context.Context so the work is cancellable. A fire-and-forget goroutine in
// the runner outlives the batch that started it and races the store's
// shutdown — the leak only shows up as a corrupt journal entry much later.
//
// The goroutine body is resolved structurally: a func literal spawned
// directly, or a local variable bound to one (`worker := func() {...};
// go worker()`). Anything else is flagged as unverifiable — concurrency in
// these packages must stay simple enough to audit.
func goroleak(m *module, cfg config, report reporter) {
	for _, p := range m.pkgs {
		if !slices.Contains(cfg.goroutines, p.rel) {
			continue
		}
		for _, f := range p.files {
			funcDecls(f, func(fd *ast.FuncDecl) {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if !hasContextParam(p.info, fd) {
						report(g.Pos(), "go statement in %s, which has no context.Context parameter; spawned work must be cancellable", fd.Name.Name)
					}
					switch body := goroutineBody(p.info, fd, g); {
					case body == nil:
						report(g.Pos(), "cannot resolve the goroutine body; spawn a func literal (or a local variable bound to one) so the WaitGroup join is auditable")
					case !callsWaitGroup(p.info, body, "Done") || !callsWaitGroup(p.info, fd.Body, "Add"):
						report(g.Pos(), "goroutine in %s is not WaitGroup-joined; Add before go, defer wg.Done() inside, Wait before returning", fd.Name.Name)
					}
					return true
				})
			})
		}
	}
}

// hasContextParam reports whether any parameter of fd is a context.Context.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if types.TypeString(info.TypeOf(field.Type), nil) == "context.Context" {
			return true
		}
	}
	return false
}

// goroutineBody resolves the block the go statement executes: a spawned
// func literal, or the func literal a spawned local identifier was bound to
// anywhere in the enclosing function.
func goroutineBody(info *types.Info, fd *ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		obj := info.Uses[fun]
		if obj == nil {
			return nil
		}
		var body *ast.BlockStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || (info.Defs[id] != obj && info.Uses[id] != obj) || i >= len(n.Rhs) {
						continue
					}
					if lit, ok := n.Rhs[i].(*ast.FuncLit); ok {
						body = lit.Body
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if info.Defs[name] != obj || i >= len(n.Values) {
						continue
					}
					if lit, ok := n.Values[i].(*ast.FuncLit); ok {
						body = lit.Body
					}
				}
			}
			return true
		})
		return body
	}
	return nil
}

// callsWaitGroup reports whether the block contains a call of the named
// method on a sync.WaitGroup value.
func callsWaitGroup(info *types.Info, block *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == method {
				t := info.TypeOf(sel.X)
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				found = found || types.TypeString(t, nil) == "sync.WaitGroup"
			}
		}
		return !found
	})
	return found
}
