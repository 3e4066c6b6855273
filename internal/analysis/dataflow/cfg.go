// Package dataflow is the intraprocedural core under qaoalint's
// dataflow-grade analyzers (poolsafe, lockorder): a control-flow graph
// built from go/ast, a generic forward may-analysis solver, and must-alias
// facts. Stdlib-only, like the rest of internal/analysis — it models
// exactly the Go subset this repository uses, trading full-language
// fidelity (goto is conservative) for zero dependencies and a CFG small
// enough to audit.
package dataflow

import (
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: a sequence of atomic nodes executed in order.
// Nodes are statements, plus the condition/tag/range expressions of the
// control statement that ends the block's straight-line run — an analyzer
// walking a block sees every expression the execution evaluates there.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body. Exit is the single
// synthetic block every normal return reaches; Defers lists the deferred
// calls in lexical order (they run at every exit and are checked
// separately by analyzers — the graph does not splice them in).
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.CallExpr
}

// New builds the control-flow graph of body. Panics and calls that never
// return (os.Exit, log.Fatal*, runtime.Goexit) end their block with no
// successor: executions through them never reach Exit. goto is handled
// conservatively as an edge to Exit (the repository style does not use it).
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g}
	g.Exit = &Block{Index: -1}
	g.Entry = b.newBlock()
	b.cur = g.Entry
	b.stmts(body.List)
	b.edge(b.cur, g.Exit)
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// Inspect walks the expression content of one block node, calling f in
// ast.Inspect order. It prunes the pieces that belong to other blocks:
// function literal bodies (separate functions) and the key/value side of a
// range head (Inspect of a range head visits only the ranged expression).
func Inspect(n ast.Node, f func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(r.X, wrap(f))
		return
	}
	ast.Inspect(n, wrap(f))
}

func wrap(f func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return f(n)
	}
}

type loopFrame struct {
	label string
	brk   *Block // break target; set for loops, switches, selects
	cont  *Block // continue target; nil for switch/select frames
}

type builder struct {
	g            *Graph
	cur          *Block
	frames       []loopFrame
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	bl := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, bl)
	return bl
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s.Call)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if neverReturns(s.X) {
			b.cur = b.newBlock()
		}
	default:
		// Assign, Decl, IncDec, Send, Go: straight-line.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	join := &Block{} // placeholder index fixed below
	thenB := b.newBlock()
	b.edge(head, thenB)
	b.cur = thenB
	b.stmts(s.Body.List)
	thenEnd := b.cur
	var elseEnd *Block
	if s.Else != nil {
		elseB := b.newBlock()
		b.edge(head, elseB)
		b.cur = elseB
		b.stmt(s.Else)
		elseEnd = b.cur
	}
	join.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, join)
	b.edge(thenEnd, join)
	if elseEnd != nil {
		b.edge(elseEnd, join)
	} else {
		b.edge(head, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	after := b.newBlock()
	cont := head
	if s.Post != nil {
		cont = b.newBlock()
		save := b.cur
		b.cur = cont
		b.stmt(s.Post)
		b.edge(b.cur, head)
		b.cur = save
	}
	b.frames = append(b.frames, loopFrame{label: label, brk: after, cont: cont})
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, cont)
	b.frames = b.frames[:len(b.frames)-1]
	if s.Cond != nil {
		// A for{} without condition has no fallthrough exit: the only way
		// out is break/return, so head gets no edge to after.
		b.edge(head, after)
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock()
	b.edge(b.cur, head)
	head.Nodes = append(head.Nodes, s)
	after := b.newBlock()
	b.edge(head, after) // every range form terminates (a channel range on close)
	b.frames = append(b.frames, loopFrame{label: label, brk: after, cont: head})
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// switchStmt builds both expression switches (tag, possibly nil) and type
// switches (assign).
func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, brk: after})
	clauses := body.List
	starts := make([]*Block, len(clauses))
	for i := range clauses {
		starts[i] = b.newBlock()
	}
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, starts[i])
		for _, e := range cc.List {
			starts[i].Nodes = append(starts[i].Nodes, e)
		}
		b.cur = starts[i]
		stmts := cc.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				stmts = stmts[:n-1]
			}
		}
		b.stmts(stmts)
		if fallsThrough && i+1 < len(clauses) {
			b.edge(b.cur, starts[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, brk: after})
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		start := b.newBlock()
		b.edge(head, start)
		b.cur = start
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	// A select{} with no clauses blocks forever: head keeps no successor.
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.target(name, false); t != nil {
			b.edge(b.cur, t)
		} else {
			b.edge(b.cur, b.g.Exit)
		}
	case token.CONTINUE:
		if t := b.target(name, true); t != nil {
			b.edge(b.cur, t)
		} else {
			b.edge(b.cur, b.g.Exit)
		}
	case token.GOTO:
		// Conservative: a goto may reach anywhere, so give it the weakest
		// useful meaning — it can leave the function.
		b.edge(b.cur, b.g.Exit)
	}
	// token.FALLTHROUGH is consumed by switchStmt; one appearing elsewhere
	// would not compile.
	b.cur = b.newBlock()
}

// target resolves a break (wantCont=false) or continue (wantCont=true)
// destination against the enclosing frame stack.
func (b *builder) target(label string, wantCont bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		fr := b.frames[i]
		if label != "" && fr.label != label {
			continue
		}
		if wantCont {
			if fr.cont != nil {
				return fr.cont
			}
			if label != "" {
				return nil
			}
			continue // unlabeled continue skips switch/select frames
		}
		return fr.brk
	}
	return nil
}

// neverReturns reports whether the expression statement is a call that
// terminates the goroutine or process: panic, os.Exit, runtime.Goexit, or
// a log.Fatal variant. Purely syntactic — the loader does not type-check
// against a vendored stdlib, and shadowing these names is not a repo idiom.
func neverReturns(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fn.Sel.Name == "Exit":
			return true
		case pkg.Name == "runtime" && fn.Sel.Name == "Goexit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fn.Sel.Name, "Fatal"):
			return true
		}
	}
	return false
}
