// Package hotpath guards the per-amplitude and per-bind kernels — the
// code the work-counter regression gates and the zero-alloc benchmarks
// (TestScoringKernelZeroAlloc, BenchmarkSkeletonBindTo) watch. A function
// annotated
//
//	//qaoa:hotpath
//
// in its doc comment declares itself allocation- and dispatch-free; the
// analyzer then proves the claim transitively: besides rejecting the
// constructs that historically crept in and silently cost 2-10× on the
// fused kernels, every callee must itself be proven.
//
// Per-body checks:
//
//   - defer — per-call overhead and a closure allocation in loops;
//   - function literals — a heap allocation per evaluation once captured
//     variables escape;
//   - any call into package fmt — formatting allocates and walks
//     reflection;
//   - explicit conversions to an interface type, and calls whose final
//     variadic parameter is ...interface{} — both box their operand;
//   - append — may grow, which is an allocation; amortized high-water
//     appends carry a //lint:allow hotpath stating why they are safe;
//   - map writes — may trigger rehashing and bucket allocation.
//
// Call-graph checks (the transitive proof):
//
//   - a call to a same-package function must target another //qaoa:hotpath
//     function, so the allocation-free property is
//     inductively established over the whole call tree;
//   - a call into another package must be on the allowlist of packages
//     known allocation-free (math, math/bits, math/cmplx, math/rand,
//     sync/atomic) or be an obsv.Collector counter update; vet analyzes
//     one package at a time, so foreign bodies cannot be inspected and
//     anything else needs an explicit //lint:allow hotpath;
//   - dynamic dispatch — interface method calls and calls through
//     function values — is flagged: the target is unprovable.
//
// Escapes: //lint:allow hotpath on the offending line, for the rare case
// where a kernel legitimately needs one of these off the per-amplitude
// loop (say, a guarded cold error path).
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// directive is the annotation marking a function as a hot kernel.
const directive = "//qaoa:hotpath"

// allowedPackages are foreign packages whose functions are known
// allocation-free and safe to call from a hot kernel.
var allowedPackages = []string{"math", "math/bits", "math/cmplx", "math/rand", "sync/atomic"}

// allowedMethods are foreign methods provable by measurement rather than
// inspection: obsv counter updates are lock-free adds the zero-alloc
// benchmarks already cover.
var allowedMethods = map[string]map[string]bool{
	"obsv": {"Inc": true, "Add": true},
}

// Analyzer rejects allocation and dynamic dispatch in annotated kernels
// and proves the claim across the package call graph.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "functions annotated //qaoa:hotpath must be allocation- and dispatch-free, transitively over the call graph",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	annotated := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				annotated[fn] = true
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkBody(pass, fd, annotated)
		}
	}
	return nil, nil
}

func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, annotated map[*types.Func]bool) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hotpath function %s", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocated in hotpath function %s", name)
		case *ast.CallExpr:
			checkCall(pass, n, name, annotated)
		case *ast.AssignStmt:
			checkMapWrite(pass, n, name)
		case *ast.IncDecStmt:
			if isMapIndex(pass, n.X) {
				pass.Reportf(n.Pos(), "map write in hotpath function %s may rehash and allocate", name)
			}
		}
		return true
	})
}

// checkMapWrite flags assignments through a map index.
func checkMapWrite(pass *analysis.Pass, as *ast.AssignStmt, name string) {
	for _, lhs := range as.Lhs {
		if isMapIndex(pass, lhs) {
			pass.Reportf(lhs.Pos(), "map write in hotpath function %s may rehash and allocate", name)
		}
	}
}

func isMapIndex(pass *analysis.Pass, e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, name string, annotated map[*types.Func]bool) {
	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			pass.Reportf(call.Pos(), "conversion to interface type %s in hotpath function %s", tv.Type, name)
		}
		return
	}
	// Builtins: append may grow; the rest are free.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				pass.Reportf(call.Pos(), "append in hotpath function %s may grow its backing array", name)
			}
			return
		}
	}
	fn, dynamic := analysis.StaticCallee(pass.TypesInfo, call)
	if dynamic {
		if fn != nil {
			pass.Reportf(call.Pos(), "dynamic dispatch to %s in hotpath function %s: interface targets cannot be proven allocation-free", fn.Name(), name)
		} else {
			pass.Reportf(call.Pos(), "call through a function value in hotpath function %s: the target cannot be proven allocation-free", name)
		}
		return
	}
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s call in hotpath function %s", fn.Name(), name)
		return
	}
	// Variadic ...interface{} parameters box every argument.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() && len(call.Args) > 0 {
		last := sig.Params().At(sig.Params().Len() - 1)
		if slice, ok := last.Type().(*types.Slice); ok {
			if iface, ok := slice.Elem().Underlying().(*types.Interface); ok && iface.Empty() {
				pass.Reportf(call.Pos(), "call to %s boxes arguments into ...interface{} in hotpath function %s", fn.Name(), name)
				return
			}
		}
	}
	// The transitive proof: same-package callees must carry the
	// annotation; foreign callees must be allowlisted.
	if fn.Pkg() == pass.Pkg {
		if annotated[fn] {
			return
		}
		pass.Reportf(call.Pos(), "call to %s in hotpath function %s: callee is not annotated //qaoa:hotpath", fn.Name(), name)
		return
	}
	if fn.Pkg() == nil {
		return // universe scope (error.Error etc. resolve as dynamic above)
	}
	if analysis.PkgNamed(fn.Pkg().Path(), allowedPackages...) {
		return
	}
	if methods, ok := allowedMethods[lastElem(fn.Pkg().Path())]; ok && methods[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(), "call to %s.%s in hotpath function %s: foreign callee is outside the hotpath allowlist", lastElem(fn.Pkg().Path()), fn.Name(), name)
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
