package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// lockscope makes the shape of a critical section the invariant. In the
// configured packages a sync.Mutex or RWMutex is taken in one of two ways:
//
//	X.Lock()              X.Lock()
//	defer X.Unlock()      ...         // no return, goto, break or
//	...                   X.Unlock()  // continue in between
//
// The deferred form holds X to the end of the function; the paired form
// holds it between two statements of one statement list, and runs straight
// through. Every other Lock or Unlock — an unlock inside a branch, a lock
// taken in an `if` and released after the join, a defer that does not
// directly follow its Lock — is a finding, so where a section starts and
// ends is read off the page, with no control-flow graph. That is stricter
// than following paths: unlocking in a branch and then returning is correct
// on every path and still rejected, and so is a loop inside a paired section
// that breaks out of itself.
//
// Nothing inside a section may block indefinitely: a channel send or
// receive, a default-less select, sync.WaitGroup.Wait, time.Sleep, file or
// network IO, or a call to a function that does one of these (a blocking
// summary per function of the configured packages: a fixpoint within each
// package, the packages in import order so an importer sees its imports').
// sync.Cond.Wait is exempt (its contract requires the lock held), and so is
// a select with a default clause (non-blocking by construction — the
// engine's cache-probe select is the sanctioned idiom). Func literals, go
// and defer statements are skipped: their bodies do not run in the section.
func lockscope(m *module, cfg config, report reporter) {
	c := &lockChecker{blocking: map[*types.Func]string{}, report: report}
	for _, p := range m.pkgs {
		if !slices.Contains(cfg.locks, p.rel) {
			continue
		}
		c.info = p.info
		// Fixpoint over the package's blocking summaries: a function blocks
		// if its body does, including through calls to functions already
		// summarized here or in a package it imports.
		for changed := true; changed; {
			changed = false
			for _, f := range p.files {
				funcDecls(f, func(fd *ast.FuncDecl) {
					fn, _ := p.info.Defs[fd.Name].(*types.Func)
					c.walk(fd.Body, func(_ ast.Node, reason string, escape bool) {
						if !escape && c.blocking[fn] == "" {
							c.blocking[fn] = reason
							changed = true
						}
					})
				})
			}
		}
		for _, f := range p.files {
			for _, u := range funcUnits(f) {
				c.unit(u)
			}
		}
	}
}

// lockChecker is one lockscope run over the module.
type lockChecker struct {
	info     *types.Info            // of the package being checked
	blocking map[*types.Func]string // functions that may block, with why
	report   reporter
}

// unit finds the critical sections of one function body, checks each with
// one walk, and rejects every mutex call that is part of none.
func (c *lockChecker) unit(u funcUnit) {
	inShape := map[*ast.CallExpr]bool{}
	eachStmtList(u.body, func(list []ast.Stmt) {
		for i, st := range list {
			lock := stmtCall(st)
			mu, method := mutexCall(c.info, lock)
			if method != "Lock" && method != "RLock" || i+1 == len(list) {
				continue
			}
			release := strings.Replace(method, "Lock", "Unlock", 1)
			unlocks := func(call *ast.CallExpr) bool {
				m, op := mutexCall(c.info, call)
				return m == mu && op == release
			}
			// The deferred shape holds mu to the end of the function, so its
			// section is everything after the defer, enclosing lists
			// included; the paired shape holds it up to the Unlock.
			var section ast.Node
			deferred := token.NoPos
			if d, ok := list[i+1].(*ast.DeferStmt); ok && unlocks(d.Call) {
				inShape[lock], inShape[d.Call] = true, true
				section, deferred = u.body, d.End()
			} else if j := slices.IndexFunc(list[i+1:], func(s ast.Stmt) bool { return unlocks(stmtCall(s)) }); j >= 0 {
				inShape[lock], inShape[stmtCall(list[i+1+j])] = true, true
				section = &ast.BlockStmt{List: list[i+1 : i+1+j]}
			}
			if section == nil {
				continue
			}
			c.walk(section, func(at ast.Node, reason string, escape bool) {
				switch {
				case at.Pos() <= deferred:
				case !escape:
					c.report(at.Pos(), "%s held across %s in %s; release the lock before any operation that can block", mu, reason, u.name)
				case deferred == token.NoPos:
					c.report(at.Pos(), "%s in %s with %s still held and no deferred unlock; a paired section runs straight through: unlock first or defer the unlock", reason, u.name, mu)
				}
			})
		}
	})
	ast.Inspect(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !inShape[call] {
			switch mu, method := mutexCall(c.info, call); method {
			case "Lock", "RLock", "Unlock", "RUnlock":
				c.report(call.Pos(), "%s.%s() in %s is in neither permitted shape: Lock directly followed by defer Unlock, or Lock … Unlock as two statements of one block", mu, method, u.name)
			}
		}
		_, lit := n.(*ast.FuncLit)
		return !lit // its own unit
	})
}

// eachStmtList applies fn to every statement list of one function body — the
// body itself, nested blocks, case and comm clauses — func literals excluded.
func eachStmtList(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

// stmtCall returns the call of an expression statement that is nothing but
// a call, else nil.
func stmtCall(s ast.Stmt) *ast.CallExpr {
	if es, ok := s.(*ast.ExprStmt); ok {
		call, _ := ast.Unparen(es.X).(*ast.CallExpr)
		return call
	}
	return nil
}

// mutexCall classifies a call as a sync.Mutex/RWMutex method, returning the
// source text of the mutex it is called on and the method name ("" for any
// other call, nil included). Two calls name the same lock when they spell it
// the same way — within one statement list that is what a reader checks too.
func mutexCall(info *types.Info, call *ast.CallExpr) (mu, method string) {
	if call == nil {
		return "", ""
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	if recv := recvTypeName(fn); recv != "Mutex" && recv != "RWMutex" {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

// walk calls found for every construct under n that can block
// indefinitely, and, as an escape named by its keyword, for every return,
// goto, break and continue.
func (c *lockChecker) walk(n ast.Node, found func(at ast.Node, reason string, escape bool)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.ReturnStmt:
			found(n, "return", true)
		case *ast.BranchStmt:
			found(n, n.Tok.String(), true)
		case *ast.SendStmt:
			found(n, "channel send", false)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found(n, "channel receive", false)
			}
		case *ast.SelectStmt:
			// The comm operations are the select's own: it blocks as a
			// whole, or not at all with a default clause. The clause bodies
			// are ordinary statements.
			hasDefault := false
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				hasDefault = hasDefault || cc.Comm == nil
				for _, s := range cc.Body {
					c.walk(s, found)
				}
			}
			if !hasDefault {
				found(n, "select with no default clause", false)
			}
			return false
		case *ast.CallExpr:
			if fn := calleeOf(c.info, n); fn != nil {
				if reason, ok := c.calleeBlocks(fn); ok {
					found(n, reason, false)
				}
			}
		}
		return true
	})
}

// calleeBlocks classifies one resolved callee: a leaf blocking primitive or
// a summarized function.
func (c *lockChecker) calleeBlocks(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "sync":
		// Mutex ops and Cond.Wait are not sinks.
		return "sync.WaitGroup.Wait", fn.Name() == "Wait" && recvTypeName(fn) == "WaitGroup"
	case "time":
		return "time.Sleep", fn.Name() == "Sleep"
	case "os", "net", "net/http", "io", "bufio":
		return pkg.Path() + "." + funcKey(fn), ioVerb(fn.Name())
	}
	reason := c.blocking[fn.Origin()]
	return fmt.Sprintf("%s (which may block on %s)", funcKey(fn), reason), reason != ""
}

// ioVerb reports whether a function name in an IO package denotes an
// operation that can block on the file system or the network. Close is
// deliberately absent — shutdown paths legitimately close under a lock.
func ioVerb(name string) bool {
	for _, v := range []string{
		"Read", "Write", "Sync", "Seek", "Flush", "Serve", "Accept", "Dial",
		"Listen", "Do", "Shutdown", "Rename", "Remove", "Mkdir", "Create",
		"Open", "Stat", "Truncate", "Copy",
	} {
		if strings.HasPrefix(name, v) {
			return true
		}
	}
	return false
}
