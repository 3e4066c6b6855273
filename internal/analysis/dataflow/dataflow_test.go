package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// build parses src (the body of package p with a function f), builds f's
// CFG, and returns it with the type info.
func build(t *testing.T, src string) (*Graph, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", "package p\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	if fn == nil {
		t.Fatal("no func f in source")
	}
	return New(fn.Body), info, fset
}

// isMark matches a call to the function named mark, scanning the node's
// expression content the way analyzers do.
func isMark(n ast.Node) bool {
	found := false
	Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
				found = true
			}
		}
		return true
	})
	return found
}

// pathAvoiding reports whether some path from the entry block to the exit
// block executes no node that match accepts: a forward may-analysis whose
// one fact, "no match yet", enters at the entry block and dies in every
// block holding a matching node. An execution that never leaves a loop, or
// ends in a call that never returns, is not such a path.
func pathAvoiding(g *Graph, match func(ast.Node) bool) bool {
	ins := ForwardUnion(g, func(b *Block, in Set[bool]) Set[bool] {
		if b == g.Entry {
			in[true] = true
		}
		for _, n := range b.Nodes {
			if match(n) {
				return Set[bool]{}
			}
		}
		return in
	})
	return ins[g.Exit][true]
}

func TestPathAvoiding(t *testing.T) {
	const prelude = `
func mark() {}
func work() {}
func cond() bool { return true }
`
	cases := []struct {
		name  string
		body  string
		avoid bool // some path from entry to exit avoids mark()
	}{
		{"straight line", `work(); mark()`, false},
		{"if without else", `if cond() { mark() }`, true},
		{"if else both", `if cond() { mark() } else { mark() }`, false},
		{"if else one side", `if cond() { mark() } else { work() }`, true},
		{"early return", `if cond() { return }; mark()`, true},
		{"infinite loop passes mark", `for { work(); mark() }`, false},
		{"infinite loop misses mark", `for { work() }; mark()`, false}, // for{} has no edge out
		{"cond loop zero iterations", `for cond() { mark() }`, true},
		{"loop then mark", `for cond() { work() }; mark()`, false},
		{"break skips mark", `for { if cond() { break }; work() }; work()`, true},
		{"break after mark", `for { mark(); if cond() { break } }`, false},
		{"panic path ignored", `if cond() { panic("x") }; mark()`, false},
		{"dead-end loop avoids", `if cond() { mark(); return }; for { work() }`, false}, // nor does this one
		{"switch no default", `switch { case cond(): mark() }`, true},
		{"switch all cases and default", `switch { case cond(): mark(); default: mark() }`, false},
		{"switch fallthrough", `switch { case cond(): work(); fallthrough; default: mark() }`, false},
		{"labeled break", `L: for { for { if cond() { break L }; mark() } }`, true},
		{"continue keeps cycle", `for { if cond() { continue }; mark(); if cond() { break } }`, false},
		{"range body may not run", `var xs []int; for range xs { mark() }`, true},
		{"mark after range", `var xs []int; for range xs { work() }; mark()`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _, _ := build(t, prelude+"func f() {\n"+tc.body+"\n}")
			if got := pathAvoiding(g, isMark); got != tc.avoid {
				t.Errorf("pathAvoiding = %v, want %v", got, tc.avoid)
			}
		})
	}
}

func TestNoReturnCalls(t *testing.T) {
	// A path ending in os.Exit never reaches the exit block, so it cannot
	// be the avoiding path.
	g, _, _ := build(t, `
import "os"
func mark() {}
func cond() bool { return true }
func f() {
	if cond() {
		os.Exit(1)
	}
	mark()
}`)
	if pathAvoiding(g, isMark) {
		t.Error("os.Exit path must not count as an execution avoiding mark")
	}
}

func TestSelectCommNodes(t *testing.T) {
	// Both select clauses begin with a receive; matching any receive must
	// block every path through the select, proving comm statements land in
	// their clause blocks rather than the head.
	g, _, _ := build(t, `
func f(a, b chan int) {
	select {
	case <-a:
	case v := <-b:
		_ = v
	}
}`)
	isRecv := func(n ast.Node) bool {
		found := false
		Inspect(n, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				found = true
			}
			return true
		})
		return found
	}
	if pathAvoiding(g, isRecv) {
		t.Error("select with receives in every clause should not be avoidable")
	}
}

func TestSelectWithDefaultAvoidable(t *testing.T) {
	g, _, _ := build(t, `
func f(a chan int) {
	select {
	case <-a:
	default:
	}
}`)
	isRecv := func(n ast.Node) bool {
		found := false
		Inspect(n, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				found = true
			}
			return true
		})
		return found
	}
	if !pathAvoiding(g, isRecv) {
		t.Error("select with a default clause must be avoidable")
	}
}

func TestDefersRecorded(t *testing.T) {
	g, _, _ := build(t, `
func mark() {}
func f() {
	defer mark()
	if true {
		defer mark()
	}
}`)
	if len(g.Defers) != 2 {
		t.Errorf("Defers = %d, want 2", len(g.Defers))
	}
}

func TestFuncLitBodiesExcluded(t *testing.T) {
	// A mark inside a closure is not an execution of the enclosing
	// function; Inspect must prune it.
	g, _, _ := build(t, `
func mark() {}
func f() {
	g := func() { mark() }
	g()
}`)
	if !pathAvoiding(g, isMark) {
		t.Error("mark inside a closure must not count for the enclosing function")
	}
}

func TestAliases(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", `package p
type T struct{ n int }
func f() {
	a := &T{}
	b := a
	c := &T{}
	x := 1
	y := x
	_, _, _, _ = b, c, x, y
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	vars := map[string]*types.Var{}
	for id, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok {
			vars[id.Name] = v
		}
	}
	var body ast.Node
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			body = fd.Body
		}
	}
	find := Aliases(body, info)
	if find(vars["a"]) != find(vars["b"]) {
		t.Error("a and b should alias")
	}
	if find(vars["a"]) == find(vars["c"]) {
		t.Error("a and c should not alias")
	}
	if find(vars["x"]) == find(vars["y"]) {
		t.Error("int copies are not aliases")
	}
}
