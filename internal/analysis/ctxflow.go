package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context discipline one function at a time: cancellation
// only works if every hop propagates its context. Outside package main,
// every argument of type context.Context must derive from
//
//   - a context parameter of the enclosing function or closure, or
//   - (*http.Request).Context(),
//
// directly or through locals assigned from calls fed such a context
// (tctx, cancel := context.WithTimeout(ctx, d); pool.WithTenant(ctx, t)).
// A context minted in library code (context.Background/TODO) or read from
// storage (a struct field, a map, a channel) is a finding at the call it is
// passed to: it silently drops the caller's cancellation and scheduler/tenant
// tags from everything below, fan-outs included. Tests are never linted, and
// package main is where root contexts are created.
var CtxFlow = &Checker{
	Name: "ctxflow",
	Doc:  "every context.Context argument derives from a ctx parameter of the enclosing function or from (*http.Request).Context()",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	if p.Pkg.Name() == "main" {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxArgs(p, fd)
			}
		}
	}
}

// checkCtxArgs walks one function body in source order, growing the set of
// derived contexts, and reports every context argument outside it. An
// argument that is itself a call fed a context is not reported: its own
// context arguments are, where the context was minted or read.
func checkCtxArgs(p *Pass, fd *ast.FuncDecl) {
	derived := map[types.Object]bool{}
	ctxParamObjsInto(p.Info, fd.Type.Params, derived)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's own ctx parameter starts a fresh chain.
			ctxParamObjsInto(p.Info, n.Type.Params, derived)
		case *ast.AssignStmt:
			trackCtxDerivation(p.Info, derived, n)
		case *ast.CallExpr:
			for _, a := range n.Args {
				if !isContextType(p.Info.TypeOf(a)) || ctxExprDerived(p.Info, derived, a) || takesCtxArg(p.Info, a) {
					continue
				}
				p.Reportf(a.Pos(), "ctxflow",
					"%s passes a context that derives from none of its ctx parameters — pass the ctx it received (or one derived from it) so cancellation and scheduler/tenant tags propagate", fd.Name.Name)
			}
		}
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func ctxParamObjsInto(info *types.Info, params *ast.FieldList, derived map[types.Object]bool) {
	if params == nil {
		return
	}
	for _, fld := range params.List {
		for _, name := range fld.Names {
			if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				derived[obj] = true
			}
		}
	}
}

// trackCtxDerivation propagates derivation through assignments: when any
// right-hand side is rooted in a derived context, every context-typed name
// on the left joins the derived set (tctx, cancel :=
// context.WithTimeout(ctx, d); sctx := pool.WithScheduler(ctx, s); ...).
// A context name reassigned from elsewhere leaves the set.
func trackCtxDerivation(info *types.Info, derived map[types.Object]bool, as *ast.AssignStmt) {
	fromDerived := false
	for _, rhs := range as.Rhs {
		if ctxExprDerived(info, derived, rhs) {
			fromDerived = true
			break
		}
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !isContextType(obj.Type()) {
			continue
		}
		if fromDerived {
			derived[obj] = true
		} else {
			delete(derived, obj)
		}
	}
}

// ctxExprDerived reports whether e is rooted in a derived context: a
// context parameter, a name assigned from one, a call fed one as any
// context-typed argument, or a request's own context.
func ctxExprDerived(info *types.Info, derived map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return derived[info.Uses[e]]
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "(*net/http.Request).Context" {
				return true
			}
		}
		for _, a := range e.Args {
			if isContextType(info.TypeOf(a)) && ctxExprDerived(info, derived, a) {
				return true
			}
		}
	}
	return false
}

// takesCtxArg reports whether e is a call with a context-typed argument.
func takesCtxArg(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, a := range call.Args {
		if isContextType(info.TypeOf(a)) {
			return true
		}
	}
	return false
}
