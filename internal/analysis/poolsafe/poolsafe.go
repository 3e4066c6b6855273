// Package poolsafe checks the lifetime discipline of pooled values: for
// sync.Pool and the hand-rolled wrappers around it (router's scorer/
// layout/circuit pools, sim's state/CDF pools, compile's bind buffers), a
// value obtained from a pool must not be used after it is Put back, must
// not be Put twice, and — in a function that borrows (acquires and
// releases) — must not escape through a return value, a channel send, or
// a heap assignment while the function also returns it to the pool, since
// the pool will hand the same memory to an unrelated caller.
//
// The analysis is intraprocedural over the dataflow CFG with must-alias
// groups: `buf2 := buf` shares buf's fate, and the results of a call that
// takes a pooled argument (`res, err := skel.BindTo(buf, …)`) join the
// buffer's group, so returning a derived view of pooled memory is flagged
// too. Wrapper functions are classified per package: a function whose
// body reaches a Pool.Get and returns a value is an acquirer (getLayout,
// getState, …); a function that Puts one of its parameters is a releaser
// (putScorer, putCDF, …). Only groups the current function releases can
// produce diagnostics — handing an acquired value to your caller is the
// normal ownership transfer, and callers who never Put are not borrowing.
//
// Known holes, accepted for simplicity: values stored into or released
// through composite structures (recycleTrials putting fields of a result
// slice) and pool events split across closures are not tracked.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer flags use-after-Put, double-Put, and escaping pooled values.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "pooled values must not be used after Put, Put twice, or escape a borrowing function",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	cls := classify(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, cls, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, cls, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// classifier is the package's pool vocabulary.
type classifier struct {
	pass      *analysis.Pass
	acquirers map[*types.Func]bool
	releasers map[*types.Func]int // function -> index of the released parameter
}

// classify finds the package's pool wrappers by fixpoint over the call
// graph: a function whose body reaches Pool.Get (directly or through an
// acquirer) and returns a value acquires; a function that Puts one of its
// own parameters (directly or through a releaser) releases.
func classify(pass *analysis.Pass) *classifier {
	cls := &classifier{
		pass:      pass,
		acquirers: map[*types.Func]bool{},
		releasers: map[*types.Func]int{},
	}
	cg := pass.CallGraph()
	for changed := true; changed; {
		changed = false
		for fn, node := range cg.Nodes {
			if !cls.acquirers[fn] && fn.Type().(*types.Signature).Results().Len() > 0 {
				for _, call := range node.Calls {
					if cls.isAcquire(call) {
						cls.acquirers[fn] = true
						changed = true
						break
					}
				}
			}
			if _, done := cls.releasers[fn]; !done {
				if idx, ok := cls.releasedParam(node); ok {
					cls.releasers[fn] = idx
					changed = true
				}
			}
		}
	}
	return cls
}

// isAcquire reports whether call obtains a value from a pool: sync.Pool
// Get or a package acquirer.
func (c *classifier) isAcquire(call *ast.CallExpr) bool {
	if isPoolMethod(c.pass.TypesInfo, call, "Get") {
		return true
	}
	fn := analysis.StaticCallee(c.pass.TypesInfo, call)
	return fn != nil && c.acquirers[fn]
}

// releaseArg returns the argument expression call returns to a pool, or
// nil: the argument of sync.Pool.Put or the released parameter of a
// package releaser.
func (c *classifier) releaseArg(call *ast.CallExpr) ast.Expr {
	if isPoolMethod(c.pass.TypesInfo, call, "Put") && len(call.Args) == 1 {
		return call.Args[0]
	}
	fn := analysis.StaticCallee(c.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if idx, ok := c.releasers[fn]; ok && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// releasedParam finds which parameter of node's function its body releases.
func (c *classifier) releasedParam(node *analysis.CallNode) (int, bool) {
	sig := node.Func.Type().(*types.Signature)
	params := map[*types.Var]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = i
	}
	for _, call := range node.Calls {
		arg := c.releaseArg(call)
		if arg == nil {
			continue
		}
		if v := identVar(c.pass.TypesInfo, unwrapReleaseArg(arg)); v != nil {
			if idx, ok := params[v]; ok {
				return idx, true
			}
		}
	}
	return 0, false
}

// isPoolMethod reports a call of sync.Pool's method name.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// unwrapReleaseArg strips the address-of and reslice wrappers release
// helpers use (cdfPool.Put(&b), pool.Put(s[:0])).
func unwrapReleaseArg(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return e
			}
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// unwrapAcquireRHS strips the type assertion and pointer-deref wrappers
// acquire sites use (pool.Get().(*T), *v.(*[]float64)).
func unwrapAcquireRHS(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// event is one pool-relevant action inside a block node, in execution
// order.
type event struct {
	kind eventKind
	v    *types.Var // group representative
	name string     // the identifier at the event site (diagnostics)
	pos  token.Pos
}

type eventKind int

const (
	evUse     eventKind = iota // a read of a tracked variable
	evRelease                  // the variable goes back to the pool
	evKill                     // the variable is reassigned (fresh value)
)

// checker carries the per-function state.
type checker struct {
	pass *analysis.Pass
	cls  *classifier
	find func(*types.Var) *types.Var
	// extra unions layered over the syntactic aliases: call results join
	// the group of pooled arguments they derive from.
	extra map[*types.Var]*types.Var

	pooled   map[*types.Var]bool // group reps acquired from a pool
	released map[*types.Var]bool // group reps with a release event in this function
	deferred map[*types.Var]token.Pos
}

func (c *checker) rep(v *types.Var) *types.Var {
	r := c.find(v)
	for {
		p, ok := c.extra[r]
		if !ok || p == r {
			return r
		}
		r = p
	}
}

func (c *checker) union(a, b *types.Var) {
	ra, rb := c.rep(a), c.rep(b)
	if ra != rb {
		c.extra[ra] = rb
	}
}

func checkBody(pass *analysis.Pass, cls *classifier, body *ast.BlockStmt) {
	c := &checker{
		pass:     pass,
		cls:      cls,
		find:     dataflow.Aliases(body, pass.TypesInfo),
		extra:    map[*types.Var]*types.Var{},
		pooled:   map[*types.Var]bool{},
		released: map[*types.Var]bool{},
		deferred: map[*types.Var]token.Pos{},
	}
	g := dataflow.New(body)

	// Vocabulary fixpoint: acquired groups and call-derived members can
	// cascade (res := derive(buf); out := view(res)), so rescan until
	// stable.
	for changed := true; changed; {
		changed = false
		for _, bl := range g.Blocks {
			for _, n := range bl.Nodes {
				if c.scanVocabulary(n) {
					changed = true
				}
			}
		}
	}
	for _, call := range g.Defers {
		if arg := c.cls.releaseArg(call); arg != nil {
			if v := identVar(pass.TypesInfo, unwrapReleaseArg(arg)); v != nil && c.pooled[c.rep(v)] {
				r := c.rep(v)
				c.released[r] = true
				if _, ok := c.deferred[r]; !ok {
					c.deferred[r] = call.Pos()
				}
			}
		}
	}
	if len(c.pooled) == 0 {
		return
	}

	// Released-set dataflow: which groups may already be back in the pool
	// when a block starts.
	ins := dataflow.ForwardUnion(g, func(bl *dataflow.Block, in dataflow.Set[*types.Var]) dataflow.Set[*types.Var] {
		for _, n := range bl.Nodes {
			for _, ev := range c.events(n) {
				switch ev.kind {
				case evRelease:
					in[ev.v] = true
				case evKill:
					delete(in, ev.v)
				}
			}
		}
		return in
	})

	// Replay over the stable in-sets, reporting.
	for _, bl := range g.Blocks {
		in := ins[bl].Clone()
		for _, n := range bl.Nodes {
			for _, ev := range c.events(n) {
				switch ev.kind {
				case evUse:
					if in[ev.v] {
						c.pass.Reportf(ev.pos, "use of pooled value %q after it was returned to the pool", ev.name)
					}
				case evRelease:
					if in[ev.v] {
						c.pass.Reportf(ev.pos, "pooled value %q returned to the pool twice", ev.name)
					} else if _, hasDefer := c.deferred[ev.v]; hasDefer {
						c.pass.Reportf(ev.pos, "pooled value %q returned to the pool twice: a deferred Put is also pending", ev.name)
					}
					in[ev.v] = true
				case evKill:
					delete(in, ev.v)
				}
			}
		}
	}

	// Escape checks: only groups this function releases are borrowed; a
	// borrowed value leaving through a return, send, or heap assignment
	// outlives its loan.
	for _, bl := range g.Blocks {
		for _, n := range bl.Nodes {
			c.checkEscape(n)
		}
	}
}

// scanVocabulary records acquires, releases, and derived aliases found in
// one block node; reports whether anything new was learned.
func (c *checker) scanVocabulary(n ast.Node) bool {
	changed := false
	dataflow.Inspect(n, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unwrapAcquireRHS(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.cls.isAcquire(call) {
			for _, lhs := range as.Lhs {
				if v := identVar(c.pass.TypesInfo, lhs); v != nil && !c.pooled[c.rep(v)] {
					c.pooled[c.rep(v)] = true
					changed = true
				}
			}
			return true
		}
		// A call fed a pooled argument produces derived views of the same
		// memory: its non-trivial results join the argument's group.
		if c.cls.releaseArg(call) != nil {
			return true // releasing is not deriving
		}
		var src *types.Var
		for _, arg := range call.Args {
			if v := identVar(c.pass.TypesInfo, arg); v != nil && c.pooled[c.rep(v)] {
				src = v
				break
			}
		}
		if src == nil {
			return true
		}
		for _, lhs := range as.Lhs {
			v := identVar(c.pass.TypesInfo, lhs)
			if v == nil || !sharesMemory(v.Type()) {
				continue
			}
			if c.rep(v) != c.rep(src) {
				c.union(v, src)
				changed = true
			}
		}
		return true
	})
	// Track releases at node granularity too (for the released set).
	for _, ev := range c.events(n) {
		if ev.kind == evRelease && !c.released[ev.v] {
			c.released[ev.v] = true
			changed = true
		}
	}
	return changed
}

// sharesMemory reports whether a value of type t can alias other storage:
// anything but basic scalars/strings and error.
func sharesMemory(t types.Type) bool {
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Interface:
		// error interface handled above; other interfaces may carry the
		// pooled value.
		return true
	}
	return true
}

// events lists the pool events of one block node in execution order: for
// assignments the right side is evaluated (uses) before the left side is
// defined (kill); a release consumes its argument without counting it as
// a use.
func (c *checker) events(n ast.Node) []event {
	var out []event
	switch n := n.(type) {
	case *ast.DeferStmt:
		return nil // runs at exit; handled via Graph.Defers
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			out = append(out, c.exprEvents(rhs)...)
		}
		for _, lhs := range n.Lhs {
			if v := identVar(c.pass.TypesInfo, lhs); v != nil {
				if r := c.rep(v); c.pooled[r] {
					out = append(out, event{kind: evKill, v: r, pos: lhs.Pos()})
				}
				continue
			}
			// Index/selector targets: the base is read, not redefined.
			out = append(out, c.exprEvents(lhs)...)
		}
		return out
	default:
		dataflow.Inspect(n, func(sub ast.Node) bool {
			if e, ok := sub.(ast.Expr); ok {
				evs, recursed := c.exprTop(e)
				if recursed {
					out = append(out, evs...)
					return false
				}
			}
			return true
		})
		return out
	}
}

// exprEvents walks one expression for uses and releases.
func (c *checker) exprEvents(e ast.Expr) []event {
	var out []event
	dataflow.Inspect(e, func(sub ast.Node) bool {
		if x, ok := sub.(ast.Expr); ok {
			evs, recursed := c.exprTop(x)
			if recursed {
				out = append(out, evs...)
				return false
			}
		}
		return true
	})
	return out
}

// exprTop handles the expression forms that need custom ordering. It
// returns (events, true) when it fully handled the subtree.
func (c *checker) exprTop(e ast.Expr) ([]event, bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		if arg := c.cls.releaseArg(e); arg != nil {
			var out []event
			for _, a := range e.Args {
				if a == arg {
					continue
				}
				out = append(out, c.exprEvents(a)...)
			}
			if v := identVar(c.pass.TypesInfo, unwrapReleaseArg(arg)); v != nil {
				if r := c.rep(v); c.pooled[r] {
					out = append(out, event{kind: evRelease, v: r, name: v.Name(), pos: e.Pos()})
				}
			}
			return out, true
		}
	case *ast.Ident:
		if v := identVar(c.pass.TypesInfo, e); v != nil {
			if r := c.rep(v); c.pooled[r] {
				return []event{{kind: evUse, v: r, name: v.Name(), pos: e.Pos()}}, true
			}
		}
		return nil, true
	}
	return nil, false
}

// checkEscape flags borrowed pooled values leaving the function.
func (c *checker) checkEscape(n ast.Node) {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		// A return escape is only hazardous when a deferred release still
		// runs after the return value is handed out; a Put on a disjoint
		// error path is the normal transfer-on-success pattern.
		for _, res := range n.Results {
			c.flagEscapes(res, "return", nil, true)
		}
	case *ast.SendStmt:
		c.flagEscapes(n.Value, "channel send", nil, false)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			switch lhs.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				// Writing into the pooled object's own storage
				// (out.Gates = append(out.Gates, g)) is mutation, not escape.
				exempt := c.rootGroup(lhs)
				if i < len(n.Rhs) {
					c.flagEscapes(n.Rhs[i], "heap assignment", exempt, false)
				} else if len(n.Rhs) == 1 {
					c.flagEscapes(n.Rhs[0], "heap assignment", exempt, false)
				}
			}
		}
	}
}

// rootGroup resolves the base variable a selector/index/deref target
// writes into, returning its group representative when pooled.
func (c *checker) rootGroup(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if v := identVar(c.pass.TypesInfo, x); v != nil {
				if r := c.rep(v); c.pooled[r] {
					return r
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// flagEscapes reports pooled group members inside e. With deferredOnly,
// only groups with a pending deferred release count (the return case);
// otherwise any released group does. exempt suppresses the group that owns
// the assignment target.
func (c *checker) flagEscapes(e ast.Expr, how string, exempt *types.Var, deferredOnly bool) {
	dataflow.Inspect(e, func(sub ast.Node) bool {
		// A subexpression whose type cannot carry memory (len(buf.Amp),
		// buf.n) cannot leak the pooled storage, whatever idents it reads.
		if x, ok := sub.(ast.Expr); ok {
			if t := c.pass.TypesInfo.TypeOf(x); t != nil && !sharesMemory(t) {
				return false
			}
		}
		id, ok := sub.(*ast.Ident)
		if !ok {
			return true
		}
		v := identVar(c.pass.TypesInfo, id)
		if v == nil {
			return true
		}
		r := c.rep(v)
		if !c.pooled[r] || r == exempt {
			return true
		}
		if deferredOnly {
			if _, ok := c.deferred[r]; !ok {
				return true
			}
		} else if !c.released[r] {
			return true
		}
		c.pass.Reportf(id.Pos(), "pooled value %q escapes via %s but is returned to the pool in this function", id.Name, how)
		return true
	})
}
