package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ctxPackages is the set of package basenames the context-plumbing
// invariant applies to: the long-running core of the system, which
// threads cancellation end to end, and par, the fan-out those packages
// run their batches on. Fixture packages use the same bare names, so the
// rule is testable outside the real tree.
var ctxPackages = map[string]bool{
	"core": true, "sim": true, "mc2": true,
	"corpus": true, "store": true, "cluster": true, "par": true,
}

// CtxFirst enforces the context conventions in the core packages: a
// context.Context parameter is always first, and an operation has one
// entry point — ctx first, under the plain name. An exported ctx-free Foo
// beside an exported FooContext or FooCtx is flagged: the ctx-free twin
// is only FooContext(context.Background(), ...) under another name, and
// two spellings of one operation invite two bodies that drift. Exported
// functions that loop over real work without taking a context are flagged
// too: they are uncancellable by construction. Escape hatch: //sbml:noctx
// with a justification.
var CtxFirst = &analysis.Analyzer{
	Name:     "ctxfirst",
	Doc:      "require context.Context first and one ctx-first entry point per operation in core packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxFirst,
}

func runCtxFirst(pass *analysis.Pass) (interface{}, error) {
	if !ctxPackages[packageBase(pass.Pkg.Path())] {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := newSuppressor(pass)

	// Index every declared function by (receiver type, name) so the
	// twin rule can find Context- and Ctx-suffixed siblings.
	decls := make(map[[2]string]bool)
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		decls[[2]string{receiverTypeName(fd), fd.Name.Name}] = true
	})

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		ctxIdx := contextParamIndex(pass, fd.Type)
		if ctxIdx > 0 {
			if !sup.suppressed(fd.Pos(), "noctx") {
				pass.Reportf(fd.Type.Params.List[0].Pos(),
					"%s takes context.Context at position %d; ctx is always the first parameter", fd.Name.Name, ctxIdx)
			}
			return
		}
		if ctxIdx == 0 || !fd.Name.IsExported() {
			return
		}
		// Exported, context-free. A ctx-taking twin under a suffixed
		// name makes two entry points for one operation.
		recv := receiverTypeName(fd)
		for _, suffix := range []string{"Context", "Ctx"} {
			if !decls[[2]string{recv, fd.Name.Name + suffix}] {
				continue
			}
			if !sup.suppressed(fd.Pos(), "noctx") {
				pass.Reportf(fd.Pos(),
					"%s has a ctx-taking twin %s%s; keep one entry point, ctx first under the plain name (or //sbml:noctx <why>)",
					fd.Name.Name, fd.Name.Name, suffix)
			}
			return
		}
		// No twin: flag only when the body loops over context-aware
		// work — a callee that itself takes a context.Context (fed
		// context.Background/TODO since this function has none). That
		// is swallowed cancellation: the work under the loop could be
		// cancelled, but no caller can reach it. Pure compute loops
		// (encoders, hash rings, accessors) stay exempt; they cost
		// microseconds and a ctx would be noise.
		if fd.Body != nil && hasCtxSwallowingLoop(pass, fd.Body) {
			if !sup.suppressed(fd.Pos(), "noctx") {
				pass.Reportf(fd.Pos(),
					"exported %s loops over context-aware calls but takes no context.Context; cancellation is swallowed (or //sbml:noctx <why>)",
					fd.Name.Name)
			}
		}
	})
	return nil, nil
}

// contextParamIndex returns the index of the context.Context parameter,
// or -1 when the function takes none.
func contextParamIndex(pass *analysis.Pass, ft *ast.FuncType) int {
	if ft.Params == nil {
		return -1
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			return idx
		}
		idx += n
	}
	return -1
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Name() == "context"
}

func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr: // generic receiver
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// hasCtxSwallowingLoop reports whether body contains a for/range
// statement whose own body calls a context-aware callee: one whose
// signature takes a context.Context. A context-free exported function
// looping over such calls buries cancellable work behind an
// uncancellable API.
func hasCtxSwallowingLoop(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
		default:
			return true
		}
		ast.Inspect(loopBody, func(m ast.Node) bool {
			if found {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok && signatureTakesContext(sig) {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

func signatureTakesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}
