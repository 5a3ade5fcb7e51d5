package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"scalesim/tools/simlint/internal/analysis"
)

// lockscope makes the shape of a critical section the invariant. In the
// configured packages a sync.Mutex or RWMutex is taken in one of two ways:
//
//	X.Lock()              X.Lock()
//	defer X.Unlock()      ...         // no return, goto, labelled branch
//	...                   X.Unlock()  // or loop exit in between
//
// The deferred form holds X to the end of the function; the paired form
// holds it between two statements of one statement list. Every other Lock or
// Unlock — an unlock inside a branch, a lock taken in an `if` and released
// after the join, a defer that does not directly follow its Lock — is a
// finding, so where a section starts and ends is read off the page, with no
// control-flow graph. That is stricter than following paths: unlocking in a
// branch and then returning is correct on every path and still rejected.
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
type lockscope struct {
	pkgs map[string]bool
}

func (lockscope) Name() string { return "lockscope" }

func (a lockscope) Run(m *analysis.Module) []analysis.Finding {
	c := &lockChecker{m: m, blocking: map[*types.Func]string{}}
	for _, p := range m.Order {
		if !a.pkgs[p.Rel] {
			continue
		}
		c.p = p
		// Fixpoint over the package's blocking summaries: a function blocks
		// if its body does, including through calls to functions already
		// summarized here or in a package it imports.
		for changed := true; changed; {
			changed = false
			for _, f := range p.Files {
				funcDecls(f, func(fd *ast.FuncDecl) {
					fn, ok := p.Info.Defs[fd.Name].(*types.Func)
					if !ok || c.blocking[fn] != "" {
						return
					}
					c.blockers(fd.Body, func(_ ast.Node, reason string) {
						if c.blocking[fn] == "" {
							c.blocking[fn] = reason
							changed = true
						}
					})
				})
			}
		}
		for _, f := range p.Files {
			for _, u := range funcUnits(f) {
				c.unit(u)
			}
		}
	}
	return c.out
}

// lockChecker is one lockscope run over the module.
type lockChecker struct {
	m        *analysis.Module
	p        *analysis.Package      // the package being checked
	blocking map[*types.Func]string // functions that may block, with why
	out      []analysis.Finding
}

func (c *lockChecker) report(at ast.Node, format string, args ...any) {
	c.out = append(c.out, finding(c.m, at.Pos(), "lockscope", format, args...))
}

// unit finds the critical sections of one function body, checks what each
// holds the lock across, and rejects every mutex call that is part of none.
func (c *lockChecker) unit(u funcUnit) {
	info := c.p.Info
	inShape := map[*ast.CallExpr]bool{}
	heldAcross := func(mu string) func(ast.Node, string) {
		return func(at ast.Node, reason string) {
			c.report(at, "%s held across %s in %s; release the lock before any operation that can block", mu, reason, u.name)
		}
	}
	eachStmtList(u.body, func(list []ast.Stmt) {
		for i, st := range list {
			lock := stmtCall(st)
			mu, method := mutexCall(info, lock)
			if method != "Lock" && method != "RLock" {
				continue
			}
			release := strings.Replace(method, "Lock", "Unlock", 1)
			unlocks := func(call *ast.CallExpr) bool {
				m, op := mutexCall(info, call)
				return m == mu && op == release
			}
			rest := list[i+1:]
			if len(rest) == 0 {
				continue
			}
			if d, ok := rest[0].(*ast.DeferStmt); ok && unlocks(d.Call) {
				inShape[lock], inShape[d.Call] = true, true
				// Held to the end of the function, so the section is
				// everything after the defer, enclosing lists included.
				report := heldAcross(mu)
				c.blockers(u.body, func(at ast.Node, reason string) {
					if at.Pos() > d.End() {
						report(at, reason)
					}
				})
				continue
			}
			for j, s := range rest {
				unlock := stmtCall(s)
				if !unlocks(unlock) {
					continue
				}
				inShape[lock], inShape[unlock] = true, true
				section := &ast.BlockStmt{List: rest[:j]}
				c.blockers(section, heldAcross(mu))
				escapes(section, false, false, func(e ast.Stmt, what, leaving string) {
					c.report(e, "%s in %s with %s still held and no deferred unlock; unlock before %s or defer the unlock", what, u.name, mu, leaving)
				})
				break
			}
		}
	})
	ast.Inspect(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own unit
		case *ast.CallExpr:
			mu, method := mutexCall(info, n)
			switch method {
			case "Lock", "RLock", "Unlock", "RUnlock":
				if !inShape[n] {
					c.report(n, "%s.%s() in %s is in neither permitted shape: Lock directly followed by defer Unlock, or Lock … Unlock as two statements of one block", mu, method, u.name)
				}
			}
		}
		return true
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

// escapes finds the statements under n that leave a Lock … Unlock section
// sideways, with the lock held: a return, a goto or labelled branch
// (wherever it lands), and a break or continue whose target encloses the
// section. n is the section, or a statement inside it that an unlabelled
// break (breakOK) or continue (continueOK) can target.
func escapes(n ast.Node, breakOK, continueOK bool, found func(s ast.Stmt, what, leaving string)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found(c, "return", "returning")
		case *ast.BranchStmt:
			switch {
			case c.Label != nil:
				found(c, c.Tok.String()+" "+c.Label.Name, "branching")
			case c.Tok == token.BREAK && !breakOK, c.Tok == token.CONTINUE && !continueOK:
				found(c, c.Tok.String(), "branching")
			}
		case *ast.ForStmt, *ast.RangeStmt:
			escapes(c, true, true, found)
			return false
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			escapes(c, true, continueOK, found)
			return false
		}
		return true
	})
}

// blockers calls found for every construct under n that can block
// indefinitely.
func (c *lockChecker) blockers(n ast.Node, found func(at ast.Node, reason string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			found(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found(n, "channel receive")
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
					c.blockers(s, found)
				}
			}
			if !hasDefault {
				found(n, "select with no default clause")
			}
			return false
		case *ast.CallExpr:
			if fn := calleeOf(c.p.Info, n); fn != nil {
				if reason, ok := c.calleeBlocks(fn); ok {
					found(n, reason)
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
