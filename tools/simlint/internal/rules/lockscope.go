package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"scalesim/tools/simlint/internal/analysis"
	"scalesim/tools/simlint/internal/flow"
)

// lockscope enforces mutex hygiene in the configured packages: a mutex must
// never be held across an operation that can block indefinitely (a channel
// send or receive outside a select-with-default, a default-less select,
// sync.WaitGroup.Wait, time.Sleep, file or network IO), and no return path
// may leave the function with the lock still held unless the unlock is
// deferred. Both properties are flow-sensitive: the rule runs a forward
// dataflow over the flow package's CFG whose state is, per mutex, "may be
// held without a deferred unlock" / "may be held with one" — tracking the
// two bits separately keeps the join precise, so a locked-with-defer path
// merging with a never-locked path does not fabricate a leak.
//
// sync.Cond.Wait is exempt (its contract requires the lock held), and so is
// a select with a default clause (non-blocking by construction — the
// engine's cache-probe select is the sanctioned idiom). Functions that
// contain a blocking operation poison their callers: same-package callees
// via a local fixpoint, cross-package ones via exported facts.
type lockscope struct {
	pkgs map[string]bool
}

func (lockscope) Name() string { return "lockscope" }

const lockFactKey = "blocking-funcs"

// lockFact is the per-mutex dataflow state, a may-analysis over both
// acquisition modes.
type lockFact uint8

const (
	heldNoDefer   lockFact = 1 << iota // held on some path with no deferred unlock
	heldWithDefer                      // held on some path with a deferred unlock
)

type lockState map[string]lockFact

var lockOps = flow.Ops[lockState]{
	Clone: func(s lockState) lockState {
		out := make(lockState, len(s))
		for k, v := range s {
			out[k] = v
		}
		return out
	},
	Join: func(dst, src lockState) (lockState, bool) {
		changed := false
		for k, v := range src {
			if dst[k]|v != dst[k] {
				dst[k] |= v
				changed = true
			}
		}
		return dst, changed
	},
	// Transfer is installed per-function (it needs the type info); see run.
}

func (a lockscope) Run(pass *analysis.Pass) []analysis.Finding {
	p := pass.Pkg
	mod := pass.Module
	if !a.pkgs[p.Rel] {
		return nil
	}

	imported := map[string]string{} // "<pkg path>|<funcKey>" -> blocking reason
	for _, imp := range p.Pkg.Imports() {
		if v, ok := pass.ImportFact(imp.Path(), lockFactKey); ok {
			for k, reason := range v.(map[string]string) {
				imported[imp.Path()+"|"+k] = reason
			}
		}
	}
	blocking := map[*types.Func]string{} // local functions that may block

	// calleeBlocks classifies one resolved callee: a leaf blocking primitive,
	// a locally summarized function, or an imported fact.
	calleeBlocks := func(fn *types.Func) (string, bool) {
		pkg := fn.Pkg()
		if pkg == nil {
			return "", false
		}
		switch pkg.Path() {
		case "sync":
			if fn.Name() == "Wait" && recvTypeName(fn) == "WaitGroup" {
				return "sync.WaitGroup.Wait", true
			}
			return "", false // Mutex ops and Cond.Wait are not sinks
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep", true
			}
			return "", false
		case "os", "net", "net/http", "io", "bufio":
			if ioVerb(fn.Name()) {
				return pkg.Path() + "." + funcKey(fn), true
			}
			return "", false
		}
		if pkg == p.Pkg {
			if reason := blocking[fn]; reason != "" {
				return fmt.Sprintf("%s (which may block on %s)", fn.Name(), reason), true
			}
			return "", false
		}
		if reason := imported[pkg.Path()+"|"+funcKey(fn)]; reason != "" {
			return fmt.Sprintf("%s (which may block on %s)", funcKey(fn), reason), true
		}
		return "", false
	}

	// nodeBlocks classifies one CFG node. Nodes are atomized statements, so
	// the only composite to special-case is the select marker itself; comm
	// clauses are separate nodes recorded in g.Comm and never block on their
	// own (the marker accounts for them).
	nodeBlocks := func(g *flow.Graph, n ast.Node) (string, bool) {
		if stmt, ok := n.(ast.Stmt); ok {
			if _, isComm := g.Comm[stmt]; isComm {
				return "", false
			}
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			if g.SelectHasDefault[sel] {
				return "", false
			}
			return "select with no default clause", true
		}
		reason, found := "", false
		ast.Inspect(n, func(c ast.Node) bool {
			if found {
				return false
			}
			switch c := c.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.SendStmt:
				reason, found = "channel send", true
				return false
			case *ast.UnaryExpr:
				if c.Op == token.ARROW {
					reason, found = "channel receive", true
					return false
				}
			case *ast.CallExpr:
				if fn := calleeOf(p.Info, c); fn != nil {
					if r, ok := calleeBlocks(fn); ok {
						reason, found = r, true
						return false
					}
				}
			}
			return true
		})
		return reason, found
	}

	var declUnits []struct {
		u  funcUnit
		fn *types.Func
		g  *flow.Graph
	}
	var allUnits []struct {
		u funcUnit
		g *flow.Graph
	}
	for _, f := range p.Files {
		for _, u := range funcUnits(f) {
			g := flow.Build(u.body)
			allUnits = append(allUnits, struct {
				u funcUnit
				g *flow.Graph
			}{u, g})
			if u.decl != nil {
				if fn, ok := p.Info.Defs[u.decl.Name].(*types.Func); ok {
					declUnits = append(declUnits, struct {
						u  funcUnit
						fn *types.Func
						g  *flow.Graph
					}{u, fn, g})
				}
			}
		}
	}

	// Fixpoint over local blocking summaries: a function blocks if any of
	// its CFG nodes does, including calls to already-summarized locals.
	for changed := true; changed; {
		changed = false
		for _, d := range declUnits {
			if blocking[d.fn] != "" {
				continue
			}
			for _, blk := range d.g.Blocks {
				for _, n := range blk.Nodes {
					if reason, ok := nodeBlocks(d.g, n); ok {
						blocking[d.fn] = reason
						changed = true
					}
				}
			}
		}
	}

	var out []analysis.Finding
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, analysis.Finding{
			Pos:  mod.Fset.Position(n.Pos()),
			Rule: a.Name(),
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	for _, au := range allUnits {
		u, g := au.u, au.g
		names := map[string]string{} // mutex path -> source rendering
		transfer := func(s lockState, n ast.Node) lockState {
			ast.Inspect(n, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				case *ast.DeferStmt:
					if path, op, ok := mutexOp(p.Info, c.Call, names); ok && op == opUnlock {
						if s[path]&heldNoDefer != 0 {
							s[path] = s[path]&^heldNoDefer | heldWithDefer
						}
					}
					return false
				case *ast.CallExpr:
					if path, op, ok := mutexOp(p.Info, c, names); ok {
						switch op {
						case opLock:
							s[path] |= heldNoDefer
						case opUnlock:
							delete(s, path)
						}
					}
				}
				return true
			})
			return s
		}
		ops := lockOps
		ops.Transfer = transfer

		held := func(s lockState, mask lockFact) (string, bool) {
			// Deterministic pick when several mutexes are held.
			best := ""
			for path, f := range s {
				if f&mask != 0 && (best == "" || path < best) {
					best = path
				}
			}
			return names[best], best != ""
		}

		in := flow.Solve(g, lockState{}, ops)
		flow.Replay(g, in, ops, func(s lockState, n ast.Node) {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				if name, ok := held(s, heldNoDefer); ok {
					report(ret, "return in %s with %s still held and no deferred unlock; unlock before returning or defer the unlock", u.name, name)
				}
				return
			}
			if reason, ok := nodeBlocks(g, n); ok {
				if name, ok := held(s, heldNoDefer|heldWithDefer); ok {
					report(n, "%s held across %s in %s; release the lock before any operation that can block", name, reason, u.name)
				}
			}
		})
		for _, ex := range flow.ExitStates(g, in, ops) {
			if ex.Last == nil {
				continue
			}
			if _, isRet := ex.Last.(*ast.ReturnStmt); isRet {
				continue // already checked by the replay pass
			}
			if isPanicNode(p.Info, ex.Last) {
				continue
			}
			if name, ok := held(ex.State, heldNoDefer); ok {
				report(ex.Last, "%s can fall off the end with %s still held and no deferred unlock", u.name, name)
			}
		}
	}

	// Export blocking summaries of exported functions for importing packages.
	exported := map[string]string{}
	for fn, reason := range blocking {
		if fn.Exported() {
			exported[funcKey(fn)] = reason
		}
	}
	pass.ExportFact(lockFactKey, exported)
	return out
}

type mutexOpKind int

const (
	opLock mutexOpKind = iota
	opUnlock
)

// mutexOp classifies a call as a sync.Mutex/RWMutex acquire or release and
// returns the lock's canonical path, recording a human rendering in names.
func mutexOp(info *types.Info, call *ast.CallExpr, names map[string]string) (string, mutexOpKind, bool) {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", 0, false
	}
	var op mutexOpKind
	switch fn.Name() {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", 0, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	path, ok := lockPath(info, sel.X)
	if !ok {
		return "", 0, false
	}
	if names != nil {
		names[path] = types.ExprString(sel.X)
	}
	return path, op, true
}

// lockPath renders a canonical lvalue path for a mutex expression, or
// reports that the expression is not a trackable storage location.
// Variables key on their declaration position, so shadowed names stay
// distinct; pointer dereferences collapse onto the pointer's path (one
// level of aliasing); all elements of an indexed container share one "[]"
// path.
func lockPath(info *types.Info, expr ast.Expr) (string, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if vr, ok := obj.(*types.Var); ok && !vr.IsField() {
			return fmt.Sprintf("v%d", vr.Pos()), true
		}
		return "", false
	case *ast.SelectorExpr:
		// A package-qualified variable keys on the variable itself.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
				if vr, ok := info.ObjectOf(x.Sel).(*types.Var); ok {
					return fmt.Sprintf("v%d", vr.Pos()), true
				}
				return "", false
			}
		}
		base, ok := lockPath(info, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.StarExpr:
		return lockPath(info, x.X)
	case *ast.IndexExpr:
		base, ok := lockPath(info, x.X)
		if !ok {
			return "", false
		}
		return base + "[]", true
	}
	return "", false
}

// isPanicNode reports whether a CFG node is a bare panic call — a held lock
// on a panicking path is the recover story's problem, not a leak.
func isPanicNode(info *types.Info, n ast.Node) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
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
