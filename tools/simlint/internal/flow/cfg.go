// Package flow is simlint's intraprocedural dataflow layer: a control-flow
// graph over go/ast function bodies and a generic forward worklist solver.
// It is built on the standard library only, like the rest of the analyzer
// framework, and exists so the lockscope rule can enforce a *flow* property
// (a lock acquired on this path is released on every path) instead of a
// purely syntactic one.
//
// The CFG is statement-granular: each basic block holds the atomic
// statements and condition expressions executed in order, and edges follow
// Go's structured control flow (if/else, for, range, switch, type switch,
// select, labeled break/continue, goto, return, panic). Function literals
// are never descended into — a closure is its own function with its own
// CFG; analyzers decide how to relate the two.
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal sequence of nodes with a single entry
// and ordered successor edges.
type Block struct {
	Index int
	// Nodes holds atomic statements and condition expressions in execution
	// order. Composite statements (if/for/switch/select) never appear here —
	// only their initializers, conditions and the select marker — so a
	// transfer function can walk each node without double-visiting branches.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the CFG of one function body. Entry starts the body; Exit is the
// single synthetic exit every return (and the fall-off-the-end path)
// reaches.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// Comm maps each select communication statement (the Comm of a
	// CommClause) to its enclosing select, so analyzers can tell a channel
	// operation that is a select arm — whose blocking semantics belong to
	// the select itself — from a bare one.
	Comm map[ast.Stmt]*ast.SelectStmt

	// SelectHasDefault records, per select statement, whether a default
	// clause makes it non-blocking.
	SelectHasDefault map[*ast.SelectStmt]bool
}

// Build constructs the CFG of a function body.
func Build(body *ast.BlockStmt) *Graph {
	g := &Graph{
		Comm:             map[ast.Stmt]*ast.SelectStmt{},
		SelectHasDefault: map[*ast.SelectStmt]bool{},
	}
	b := &builder{g: g, labels: map[string]*labelBlocks{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, g.Exit)
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// labelBlocks are the resolved targets of a label: the block the labeled
// statement starts in (goto/continue-into target) and, once known, the
// break and continue targets of a labeled loop or switch.
type labelBlocks struct {
	start *Block // target of goto L, created on first reference
	brk   *Block // target of break L
	cont  *Block // target of continue L (loops only)
}

type builder struct {
	g   *Graph
	cur *Block

	// breaks/continues are the innermost targets for unlabeled branch
	// statements; nil entries mark constructs that accept break but not
	// continue (switch, select).
	breaks    []*Block
	continues []*Block

	labels map[string]*labelBlocks
	// pendingLabel is the label naming the *next* loop/switch/select
	// statement, consumed by the construct it labels.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// startBlock finishes cur with an edge into a fresh block and continues
// there.
func (b *builder) startBlock() *Block {
	n := b.newBlock()
	b.edge(b.cur, n)
	b.cur = n
	return n
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// unreachable parks the builder in a fresh block with no predecessors, for
// code after return/break/continue/goto/panic.
func (b *builder) unreachable() {
	b.cur = b.newBlock()
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) label(name string) *labelBlocks {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{start: b.newBlock()}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.label(s.Label.Name)
		b.edge(b.cur, lb.start)
		b.cur = lb.start
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		join := b.newBlock()

		thenB := b.newBlock()
		b.edge(head, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)

		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			b.add(s.Cond)
		}
		exit := b.newBlock()
		post := b.newBlock() // continue target; runs Post then loops
		if s.Cond != nil {
			b.edge(head, exit)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.pushLoop(label, exit, post)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock()
		// The RangeStmt itself is the head's node: transfers interpret it as
		// "Key, Value = element of X" (and, for a channel, a receive).
		b.add(s)
		exit := b.newBlock()
		b.edge(head, exit) // zero iterations
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.pushLoop(label, exit, head)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		hasDefault := false
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		b.g.SelectHasDefault[s] = hasDefault
		// The select itself is a node: the single point where a
		// default-less select blocks.
		b.add(s)
		head := b.cur
		join := b.newBlock()
		b.pushLoop(label, join, nil)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			arm := b.newBlock()
			b.edge(head, arm)
			b.cur = arm
			if cc.Comm != nil {
				b.g.Comm[cc.Comm] = s
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.popLoop()
		if len(s.Body.List) == 0 {
			b.edge(head, join) // select{} blocks forever; keep the graph sane
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.unreachable()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				b.edge(b.cur, b.label(s.Label.Name).brk)
			} else if t := b.innermost(b.breaks); t != nil {
				b.edge(b.cur, t)
			}
			b.unreachable()
		case token.CONTINUE:
			if s.Label != nil {
				b.edge(b.cur, b.label(s.Label.Name).cont)
			} else if t := b.innermost(b.continues); t != nil {
				b.edge(b.cur, t)
			}
			b.unreachable()
		case token.GOTO:
			b.edge(b.cur, b.label(s.Label.Name).start)
			b.unreachable()
		case token.FALLTHROUGH:
			// Handled by caseClauses; nothing to do here.
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.unreachable()
		}

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.DeferStmt, *ast.GoStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		b.add(s)
	}
}

// caseClauses lowers the shared body of switch and type switch: every
// clause branches from the head; fallthrough chains a clause into the next
// one's body.
func (b *builder) caseClauses(label string, clauses []ast.Stmt, _ *Block) {
	head := b.cur
	join := b.newBlock()
	b.pushLoop(label, join, nil)

	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock()
		if len(c.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.edge(head, bodies[i])
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.edge(b.cur, bodies[i+1])
			b.unreachable()
		} else {
			b.edge(b.cur, join)
		}
	}
	b.popLoop()
	b.cur = join
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		lb := b.label(label)
		lb.brk = brk
		lb.cont = cont
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// innermost returns the nearest non-nil target (switch/select push nil
// continue targets that an unlabeled continue must skip past).
func (b *builder) innermost(stack []*Block) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != nil {
			return stack[i]
		}
	}
	return nil
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
