package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context discipline end to end: cancellation only works if
// every hop propagates its context. Four rules:
//
//  1. No context.Background()/context.TODO() outside package main (tests are
//     never linted). Library code accepts a ctx from its caller; a fresh
//     Background silently detaches everything below it from cancellation.
//  2. A function that received a ctx and calls a context-taking callee must
//     not hand that callee a fresh Background/TODO — that drops the caller's
//     cancellation on the floor mid-chain.
//  3. A function that received a ctx must not fan out through a callee that
//     transitively reaches the worker pool (pool.ForEachCtx / pool.Go) but
//     takes no ctx itself — the fan-out below
//     becomes uncancellable. This one is interprocedural: pool
//     reachability is a fixpoint over the static call graph
//     (computePoolReach), and the finding carries the call chain down to
//     the pool entry point.
//  4. A function that received a ctx and calls a context-deriving wrapper —
//     any callee that both takes and returns a context.Context, the shape of
//     pool.WithTenant / pool.WithScheduler / context.WithValue — must derive
//     the wrapper's input from the incoming ctx (directly or through a chain
//     of such wrappers). Tagging a context from anywhere else silently drops
//     the caller's cancellation AND its scheduler/tenant tags from everything
//     built on the wrapper's result. Fresh Background/TODO inputs are rule
//     2's jurisdiction and are not re-reported here.
var CtxFlow = &ProgramChecker{
	Name: "ctxflow",
	Doc:  "contexts must flow: no Background/TODO outside main, no dropped ctx before a pool fan-out, wrappers retag the incoming ctx",
	Run:  runCtxFlow,
}

func runCtxFlow(p *ProgPass) {
	computePoolReach(p.Prog)
	for _, fi := range p.Prog.ordered {
		checkCtxFlow(p, fi)
	}
}

func checkCtxFlow(p *ProgPass, fi *funcInfo) {
	info := fi.unit.info
	isMain := fi.unit.pkg.Name() == "main"
	hasCtx := fi.takesCtx
	derived := ctxParamObjs(info, fi.decl.Type.Params)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if hasCtx {
				trackCtxDerivation(info, derived, n)
			}
			return true
		case *ast.FuncLit:
			// A closure's own ctx parameter starts a fresh chain; treat it
			// as derived so shadowing does not false-positive rule 4.
			ctxParamObjsInto(info, n.Type.Params, derived)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if hasCtx {
			if arg, ok := ctxWrapperArg(info, call); ok &&
				!isCtxRootCall(info, arg) && !ctxExprDerived(info, derived, arg) {
				p.Reportf(call.Pos(), "ctxflow",
					"%s receives a ctx but tags a different context here — the wrapper's result drops the incoming cancellation and scheduler/tenant chain; derive the wrapper's input from the ctx parameter", fi.name())
			}
		}
		if name, _, ok := selectorPkgCall(info, call, "context"); ok {
			switch name {
			case "Background", "TODO":
				switch {
				case isMain:
				case hasCtx:
					p.Reportf(call.Pos(), "ctxflow",
						"%s receives a ctx but creates context.%s — pass the ctx (or a context derived from it) so cancellation propagates", fi.name(), name)
				default:
					p.Reportf(call.Pos(), "ctxflow",
						"context.%s outside package main: accept a ctx parameter and plumb it from the caller", name)
				}
			}
			return true
		}
		if !hasCtx {
			return true
		}
		callee := p.Prog.staticCallee(info, call)
		if callee == nil || callee == fi {
			return true
		}
		if !callee.takesCtx && callee.poolReach != nil {
			p.Reportf(call.Pos(), "ctxflow",
				"ctx dropped before a pool fan-out: %s takes no context but %s — the work below this call cannot be cancelled; plumb the ctx through %s",
				callee.name(), chainString(callee.poolReach), callee.name())
		}
		return true
	})
}

// chain is a human-readable call path, caller first.
type chain []string

// chainString joins a call chain for a message.
func chainString(c chain) string {
	return strings.Join(c, " → ")
}

// maxChain bounds chain growth through deep call stacks and recursion.
const maxChain = 8

// poolFanOutNames are the worker-pool entry points whose reachability
// ctxflow tracks; matching is by function name plus a context parameter in
// the callee's signature, so self-contained fixtures work like the real
// internal/pool.
var poolFanOutNames = map[string]bool{
	"ForEachCtx": true, "Go": true,
}

// computePoolReach sets every function's poolReach: the first call in its
// body, in source order, that is a pool fan-out or reaches one through a
// module callee. Functions are visited in the program's deterministic order
// and a chain, once set, never changes, so the chains are deterministic
// too. Rounds are bounded by the call-graph depth; the extra slack covers
// recursion.
func computePoolReach(prog *program) {
	for round := 0; round < len(prog.ordered)+2; round++ {
		changed := false
		for _, fi := range prog.ordered {
			if fi.poolReach == nil {
				fi.poolReach = firstPoolReach(prog, fi)
				changed = changed || fi.poolReach != nil
			}
		}
		if !changed {
			break
		}
	}
}

// firstPoolReach returns the chain of fi's first call that reaches a pool
// fan-out with what is known so far, or nil.
func firstPoolReach(prog *program, fi *funcInfo) chain {
	info := fi.unit.info
	var found chain
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		at := prog.posString(call.Pos())
		if name := calleeName(call); poolFanOutNames[name] {
			if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sigTakesContext(sig) {
				found = chain{fmt.Sprintf("calls %s at %s", name, at)}
				return false
			}
		}
		if callee := prog.staticCallee(info, call); callee != nil && callee.poolReach != nil {
			found = appendChain(chain{fmt.Sprintf("calls %s at %s", callee.name(), at)}, callee.poolReach...)
			return false
		}
		return true
	})
	return found
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func sigTakesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func appendChain(c chain, steps ...string) chain {
	out := make(chain, len(c), len(c)+len(steps))
	copy(out, c)
	for _, s := range steps {
		if len(out) >= maxChain {
			break
		}
		out = append(out, s)
	}
	return out
}

// ctxParamObjs seeds the derivation set for rule 4 with the function's
// context.Context parameter objects.
func ctxParamObjs(info *types.Info, params *ast.FieldList) map[types.Object]bool {
	derived := map[types.Object]bool{}
	ctxParamObjsInto(info, params, derived)
	return derived
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

// trackCtxDerivation propagates rule 4's derivation through assignments:
// when any right-hand side is rooted in a derived context, every
// context-typed name on the left joins the derived set (tctx, cancel :=
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

// ctxExprDerived reports whether e is rooted in a derived context: the
// context parameter itself, a name assigned from one, or a call fed one as
// any context-typed argument.
func ctxExprDerived(info *types.Info, derived map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return derived[info.Uses[e]]
	case *ast.CallExpr:
		for _, a := range e.Args {
			if t := info.TypeOf(a); t != nil && isContextType(t) &&
				ctxExprDerived(info, derived, a) {
				return true
			}
		}
	}
	return false
}

// ctxWrapperArg matches rule 4's wrapper shape by signature — the callee
// both takes and returns a context.Context — and returns the argument
// filling the context parameter.
func ctxWrapperArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return nil, false
	}
	returnsCtx := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isContextType(sig.Results().At(i).Type()) {
			returnsCtx = true
			break
		}
	}
	if !returnsCtx {
		return nil, false
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return call.Args[i], true
		}
	}
	return nil, false
}

// isCtxRootCall reports whether e is a direct context.Background()/TODO()
// call — rule 2 owns those, rule 4 must not double-report.
func isCtxRootCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	name, _, ok := selectorPkgCall(info, call, "context")
	return ok && (name == "Background" || name == "TODO")
}
