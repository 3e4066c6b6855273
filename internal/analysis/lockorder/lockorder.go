// Package lockorder enforces the serve package's mutex discipline. Serve
// holds locks only for map/list surgery: while any serve mutex is held,
// no compilation, simulation, network call, or time.Sleep may run, and a
// second lock may only be acquired strictly inward along the recorded
// tier order. Both cache tiers (the full-key outcome LRU and the
// angle-free skeleton LRU) share the lru.mu class at the innermost tier,
// so holding either forbids acquiring anything — including the other
// tier, which is what makes "no second-tier lock acquisition while
// holding a cache mutex" a structural rule rather than a review note.
//
// Lock classes are named after the owning type ("lru.mu", "breaker.mu"):
// every sync.Mutex/RWMutex acquired inside serve must belong to a class
// in Tiers, so a new lock cannot be added without recording its place in
// the order. The analysis is intraprocedural over the dataflow CFG —
// the held set flows through branches, and defer Unlock is the repo
// idiom, so a lock held at a call site is genuinely held there.
package lockorder

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Tiers is the recorded lock order for internal/serve: a lock may be
// acquired while holding another only if its tier is strictly greater
// (further inward). lru.mu — the class of both the compiled-outcome LRU
// and the skeleton LRU — is innermost: holding a cache mutex forbids
// acquiring any serve lock, including the other cache tier.
var Tiers = map[string]int{
	"ObsServer.mu":   10, // readiness flips around the observability endpoint
	"inspector.mu":   20, // request-record ring
	"admission.mu":   30, // queue-depth accounting
	"breaker.mu":     40, // per-preset breaker state
	"flightGroup.mu": 50, // singleflight join/finish surgery
	"registry.mu":    60, // device snapshot swap
	"lru.mu":         70, // both cache tiers; innermost, nothing nests inside
}

// bannedPackages may not be called while holding any serve lock: compile
// and routing work takes milliseconds, simulation seconds, and network
// writes block arbitrarily — all of them would serialize every cache hit
// behind one slow request.
var bannedPackages = []string{"compile", "router", "sim", "net", "net/http"}

// Analyzer enforces the serve lock-tier order and the no-slow-work-under-
// lock rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "serve locks nest only inward along the recorded tier order, and no compile/simulate/network/sleep runs under a serve lock",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PkgNamed(pass.Pkg.Path(), "serve") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	g := dataflow.New(body)
	// Held-set dataflow: which lock classes may be held entering a block.
	// defer Unlock is ignored deliberately — the lock stays held until the
	// function returns, which is exactly what the call-site checks need.
	transfer := func(bl *dataflow.Block, in dataflow.Set[string], report bool) dataflow.Set[string] {
		for _, n := range bl.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				// defer Unlock runs at return, not here: the lock stays
				// held for the rest of the function.
				continue
			}
			dataflow.Inspect(n, func(sub ast.Node) bool {
				call, ok := sub.(*ast.CallExpr)
				if !ok {
					return true
				}
				if class, op := lockOp(pass.TypesInfo, call); class != "" {
					switch op {
					case opLock:
						if report {
							checkAcquire(pass, call, class, in)
						}
						in[class] = true
					case opUnlock:
						delete(in, class)
					}
					return true
				}
				if report && len(in) > 0 {
					checkCallUnderLock(pass, call, in)
				}
				return true
			})
		}
		return in
	}
	ins := dataflow.ForwardUnion(g, func(bl *dataflow.Block, in dataflow.Set[string]) dataflow.Set[string] {
		return transfer(bl, in, false)
	})
	for _, bl := range g.Blocks {
		transfer(bl, ins[bl].Clone(), true)
	}
}

// checkAcquire enforces the tier order at a Lock/RLock site.
func checkAcquire(pass *analysis.Pass, call *ast.CallExpr, class string, held dataflow.Set[string]) {
	tier, known := Tiers[class]
	if !known {
		pass.Reportf(call.Pos(), "lock class %q has no recorded tier: add it to lockorder.Tiers before using it in serve", class)
		return
	}
	for h := range held {
		if ht, ok := Tiers[h]; ok && tier <= ht {
			pass.Reportf(call.Pos(), "acquiring %s (tier %d) while holding %s (tier %d) violates the serve lock order", class, tier, h, ht)
		}
	}
}

// checkCallUnderLock flags slow or reentrant work under a serve lock.
func checkCallUnderLock(pass *analysis.Pass, call *ast.CallExpr, held dataflow.Set[string]) {
	fn := analysis.StaticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path == "time" && fn.Name() == "Sleep" {
		pass.Reportf(call.Pos(), "time.Sleep while holding %s: serve locks guard map surgery only", anyHeld(held))
		return
	}
	if analysis.PkgNamed(path, bannedPackages...) {
		pass.Reportf(call.Pos(), "call into %s while holding %s: no compile/simulate/network work under a serve lock", path, anyHeld(held))
	}
}

func anyHeld(held dataflow.Set[string]) string {
	best := ""
	for h := range held {
		if best == "" || h < best {
			best = h
		}
	}
	return best
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as acquiring or releasing a mutex, returning
// the lock class name ("lru.mu" for c.mu where c is an *lru[V], or the
// variable name for a package-level mutex).
func lockOp(info *types.Info, call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", opNone
	}
	recv := sel.X
	if !isMutex(info.TypeOf(recv)) {
		return "", opNone
	}
	return lockClass(info, recv), op
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer).
func isMutex(t types.Type) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockClass names the lock: "Owner.field" for a field of a named type
// (generic instances collapse to their origin: lru[*outcome] and
// lru[*skelEntry] are one class), the plain identifier otherwise.
func lockClass(info *types.Info, recv ast.Expr) string {
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		t := info.TypeOf(r.X)
		if t == nil {
			return r.Sel.Name
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name := named.Origin().Obj().Name()
			return name + "." + r.Sel.Name
		}
		return exprString(r.X) + "." + r.Sel.Name
	case *ast.Ident:
		return r.Name
	}
	return exprString(recv)
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprString(e.X)
	}
	return "?"
}

// ClassesIn lists every serve lock class the analyzer would assign in the
// given package — exported so a regression test can assert Tiers covers
// the real serve tree exactly.
func ClassesIn(pass *analysis.Pass) []string {
	seen := map[string]bool{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // the analyzer exempts test files; mirror that here
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if class, op := lockOp(pass.TypesInfo, call); op != opNone && class != "" {
				seen[class] = true
			}
			return true
		})
	}
	var out []string
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
