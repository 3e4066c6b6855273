package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the static call graph of one package: every function or
// method declared with a body, with the call expressions its body
// contains. Cross-package callees have no node of their own — an analyzer
// that needs their bodies must treat them as opaque.
type CallGraph struct {
	Nodes map[*types.Func]*CallNode
}

// CallNode is one declared function and the call expressions of its body,
// in source order. Calls inside nested function literals are included —
// the literal's calls happen on behalf of whoever runs the closure.
type CallNode struct {
	Func  *types.Func
	Calls []*ast.CallExpr
}

// CallGraph returns the package call graph, built once per pass.
func (p *Pass) CallGraph() *CallGraph {
	if p.callgraph != nil {
		return p.callgraph
	}
	cg := &CallGraph{Nodes: map[*types.Func]*CallNode{}}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &CallNode{Func: fn}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					node.Calls = append(node.Calls, call)
				}
				return true
			})
			cg.Nodes[fn] = node
		}
	}
	p.callgraph = cg
	return cg
}

// StaticCallee resolves the function or method a call expression names:
// nil for calls through function values, conversions and builtins, and the
// interface method object for interface method calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fe := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fe].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fe]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fe.Sel].(*types.Func) // package-qualified call
		return f
	}
	return nil
}
