package rules

import (
	"go/ast"
	"go/types"
)

// funcDecls applies fn to every function declaration with a body in the
// file, giving rules a named context for their walks.
func funcDecls(f *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}

// calleeOf resolves the called function or method of a call expression,
// including interface methods. Returns nil for conversions, builtins,
// function-typed values and literals.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// recvTypeName returns the name of a method's receiver type (struct or
// interface, through a pointer), or "" for package-level functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcKey names a function or method in a message: "Type.Method" or
// "Func".
func funcKey(fn *types.Func) string {
	if r := recvTypeName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

// funcUnit is one analyzable function body: a declared function or a
// function literal (closures and goroutine bodies are their own units —
// no walk of one descends into another).
type funcUnit struct {
	name string // enclosing declaration name, for messages
	body *ast.BlockStmt
}

// funcUnits collects every function body of a file in declaration order:
// each FuncDecl, followed by every FuncLit it contains.
func funcUnits(f *ast.File) []funcUnit {
	var out []funcUnit
	funcDecls(f, func(fd *ast.FuncDecl) {
		out = append(out, funcUnit{name: fd.Name.Name, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcUnit{name: fd.Name.Name, body: lit.Body})
			}
			return true
		})
	})
	return out
}
