package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the per-function dataflow of the interprocedural engine. For
// every function in the program it computes a summary — which results may
// alias recycled scratch memory, which parameters flow into results, which
// parameters get stored into objects that outlive the call, and whether the
// function transitively reaches a worker-pool fan-out — and iterates the
// whole module to a fixpoint so summaries compose across call boundaries.
// The checkers (arenaescape.go, ctxflow.go) then re-walk function bodies
// with the converged summaries and report at the offending site, carrying
// the escape/flow chain in the message.

// chain is a human-readable escape/flow path, origin first.
type chain []string

// maxChain bounds chain growth through deep call stacks and recursion.
const maxChain = 8

// summary is the per-function dataflow summary. All fields grow
// monotonically during the fixpoint; chains are set once (first result wins,
// and the function processing order is deterministic, so messages are too).
type summary struct {
	retScratch []chain  // result i may alias scratch-pool memory
	retParams  []uint64 // result i may alias these parameters (bitmask)
	persist    []chain  // param i is stored somewhere that outlives the call
	poolReach  chain    // transitively reaches a pool ForEachCtx/Go
}

func newSummary() *summary { return &summary{} }

// computeSummaries iterates all function summaries to a fixpoint. Rounds are
// bounded by the call-graph depth; the extra slack covers recursion, which
// converges because summaries only grow.
func computeSummaries(prog *program) {
	for round := 0; round < len(prog.ordered)+2; round++ {
		changed := false
		for _, fi := range prog.ordered {
			ev := newEvaluator(prog, fi, nil)
			ev.run()
			if ev.sumChanged {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// absval is the abstract value of an expression: does it (possibly) alias
// scratch-pool memory, and which of the enclosing function's parameters does
// it (possibly) alias.
type absval struct {
	scratch chain
	params  uint64
}

func (v absval) empty() bool { return v.scratch == nil && v.params == 0 }

func mergeVal(a, b absval) (absval, bool) {
	changed := false
	if a.scratch == nil && b.scratch != nil {
		a.scratch = b.scratch
		changed = true
	}
	if b.params&^a.params != 0 {
		a.params |= b.params
		changed = true
	}
	return a, changed
}

// evaluator runs the abstract interpretation over one function body.
type evaluator struct {
	prog *program
	fi   *funcInfo
	pass *ProgPass // non-nil only during the arenaescape reporting walk

	env        map[types.Object]absval
	resultObjs []types.Object // named result objects, for bare returns
	litRanges  [][2]token.Pos // FuncLit body ranges (returns there are not ours)

	reporting  bool
	envChanged bool
	sumChanged bool
}

func newEvaluator(prog *program, fi *funcInfo, pass *ProgPass) *evaluator {
	ev := &evaluator{prog: prog, fi: fi, pass: pass, env: map[types.Object]absval{}}
	ev.initEnv()
	return ev
}

func (ev *evaluator) info() *types.Info { return ev.fi.unit.info }

func (ev *evaluator) typeOf(e ast.Expr) types.Type {
	if tv, ok := ev.info().Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (ev *evaluator) posStr(pos token.Pos) string { return ev.prog.posString(pos) }

// initEnv seeds parameters with their own param-alias bit. Parameters of
// shallow (reference-free) type can never carry an alias out, so they are
// not tracked at all.
func (ev *evaluator) initEnv() {
	fd := ev.fi.decl
	idx := 0
	seed := func(names []*ast.Ident) {
		for _, name := range names {
			obj := ev.info().Defs[name]
			if obj != nil && idx < 64 && !isShallow(obj.Type()) {
				ev.env[obj] = absval{params: 1 << uint(idx)}
			}
			idx++
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			seed(field.Names)
		}
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		seed(field.Names)
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if len(field.Names) == 0 {
				ev.resultObjs = append(ev.resultObjs, nil)
				continue
			}
			for _, name := range field.Names {
				ev.resultObjs = append(ev.resultObjs, ev.info().Defs[name])
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ev.litRanges = append(ev.litRanges, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
		}
		return true
	})
}

func (ev *evaluator) inFuncLit(n ast.Node) bool {
	for _, r := range ev.litRanges {
		if r[0] <= n.Pos() && n.End() <= r[1] {
			return true
		}
	}
	return false
}

// run iterates the body to a local fixpoint (loops can taint a variable
// textually after its use), then, when reporting, takes one final pass that
// emits findings with the converged values.
func (ev *evaluator) run() {
	for i := 0; i < 10; i++ {
		ev.envChanged = false
		ev.walk(false)
		if !ev.envChanged {
			break
		}
	}
	if ev.pass != nil {
		ev.walk(true)
	}
}

func (ev *evaluator) walk(reporting bool) {
	ev.reporting = reporting
	ast.Inspect(ev.fi.decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			ev.evalCall(st)
		case *ast.AssignStmt:
			ev.assign(st)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				ev.genDecl(gd)
			}
		case *ast.RangeStmt:
			ev.rangeStmt(st)
		case *ast.ReturnStmt:
			if !ev.inFuncLit(st) {
				ev.returnStmt(st)
			}
		}
		return true
	})
}

func (ev *evaluator) assign(st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		vals := ev.evalTuple(st.Rhs[0], len(st.Lhs))
		for i, lhs := range st.Lhs {
			ev.handleStore(lhs, vals[i])
		}
		return
	}
	for i := range st.Rhs {
		if i >= len(st.Lhs) {
			break
		}
		ev.handleStore(st.Lhs[i], ev.evalExpr(st.Rhs[i]))
	}
}

func (ev *evaluator) genDecl(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			vals := ev.evalTuple(vs.Values[0], len(vs.Names))
			for i, name := range vs.Names {
				ev.bindIdent(name, vals[i])
			}
			continue
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				ev.bindIdent(name, ev.evalExpr(vs.Values[i]))
			}
		}
	}
}

func (ev *evaluator) rangeStmt(st *ast.RangeStmt) {
	val := ev.evalExpr(st.X)
	if val.empty() {
		return
	}
	if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
		ev.bindIdent(id, filterShallow(val, ev.typeOf(st.Value)))
	}
	if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
		ev.bindIdent(id, filterShallow(val, ev.typeOf(st.Key)))
	}
}

func (ev *evaluator) returnStmt(st *ast.ReturnStmt) {
	var vals []absval
	switch {
	case len(st.Results) == 0:
		for _, obj := range ev.resultObjs {
			if obj == nil {
				vals = append(vals, absval{})
			} else {
				vals = append(vals, ev.env[obj])
			}
		}
	case len(st.Results) == 1 && ev.fi.nresults > 1:
		vals = ev.evalTuple(st.Results[0], ev.fi.nresults)
	default:
		for _, r := range st.Results {
			vals = append(vals, ev.evalExpr(r))
		}
	}
	for k, val := range vals {
		if k >= ev.fi.nresults {
			break
		}
		ev.sumSetRetScratch(k, val.scratch)
		ev.sumOrRetParams(k, val.params)
		if ev.reporting && val.scratch != nil && ev.fi.boundary() {
			ev.report(st.Pos(),
				"recycled scratch returned past the engine boundary: exported %s hands out a buffer that a Put will recycle under the caller (%s) — return a copy",
				ev.fi.name(), chainString(val.scratch))
		}
	}
}

// handleStore records the assignment lhs = val: sink checks (package-level
// variables, Report/cache structs), then local binding.
func (ev *evaluator) handleStore(lhs ast.Expr, val absval) {
	ev.checkStoreSink(lhs, val)
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		ev.bindIdent(e, val)
	default:
		// Storing into a field/element of a local container taints the
		// container itself (it now holds a reference to the value).
		if !val.empty() {
			if root := rootIdent(lhs); root != nil {
				ev.bindIdent(root, val)
			}
		}
	}
}

func (ev *evaluator) bindIdent(id *ast.Ident, val absval) {
	if id.Name == "_" || val.empty() {
		return
	}
	obj := ev.info().ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || isPkgLevelVar(v) {
		return // package vars are sinks, handled by checkStoreSink
	}
	merged, changed := mergeVal(ev.env[obj], val)
	if changed {
		ev.env[obj] = merged
		ev.envChanged = true
	}
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isPkgLevelVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkStoreSink reports (or summarizes) a store of val into a location that
// outlives the run: a package-level variable, or a field/element of a
// persistent struct (Report, the geometry cache and its memo entries).
func (ev *evaluator) checkStoreSink(lhs ast.Expr, val absval) {
	if val.empty() {
		return
	}
	cur := lhs
	for {
		switch e := ast.Unparen(cur).(type) {
		case *ast.Ident:
			if v, ok := ev.info().ObjectOf(e).(*types.Var); ok && isPkgLevelVar(v) {
				ev.storeSink(lhs.Pos(), val, "package-level variable "+v.Name())
			}
			return
		case *ast.SelectorExpr:
			if v, ok := ev.info().ObjectOf(e.Sel).(*types.Var); ok && isPkgLevelVar(v) {
				ev.storeSink(lhs.Pos(), val, "package-level variable "+v.Name())
				return
			}
			if name, ok := persistentTypeName(ev.typeOf(e.X)); ok {
				ev.storeSink(lhs.Pos(), val, fmt.Sprintf("%s.%s, which outlives the run", name, e.Sel.Name))
				return
			}
			cur = e.X
		case *ast.IndexExpr:
			if name, ok := persistentTypeName(ev.typeOf(e.X)); ok {
				ev.storeSink(lhs.Pos(), val, fmt.Sprintf("an element of %s, which outlives the run", name))
				return
			}
			cur = e.X
		case *ast.StarExpr:
			if name, ok := persistentTypeName(ev.typeOf(e.X)); ok {
				ev.storeSink(lhs.Pos(), val, fmt.Sprintf("*%s, which outlives the run", name))
				return
			}
			cur = e.X
		default:
			return
		}
	}
}

func (ev *evaluator) storeSink(pos token.Pos, val absval, where string) {
	if ev.reporting && val.scratch != nil {
		ev.report(pos, "recycled scratch escapes the run: %s stored into %s — a Put will hand the same memory to the next user; copy before publishing", chainString(val.scratch), where)
	}
	for j := 0; j < ev.fi.nparams && j < 64; j++ {
		if val.params&(1<<uint(j)) != 0 {
			ev.sumSetPersist(j, chain{fmt.Sprintf("%s stores it into %s at %s",
				ev.fi.name(), where, ev.posStr(pos))})
		}
	}
}

// evalExpr computes the abstract value of an expression.
func (ev *evaluator) evalExpr(e ast.Expr) absval {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := ev.info().ObjectOf(x); obj != nil {
			return ev.env[obj]
		}
	case *ast.ParenExpr:
		return ev.evalExpr(x.X)
	case *ast.SelectorExpr:
		// Qualified package identifiers resolve to zero; field selection
		// propagates unless the field's type cannot hold a reference.
		if id, ok := x.X.(*ast.Ident); ok {
			if pkgNameOf(ev.info(), id) != "" {
				return absval{}
			}
		}
		return filterShallow(ev.evalExpr(x.X), ev.typeOf(e))
	case *ast.IndexExpr:
		return filterShallow(ev.evalExpr(x.X), ev.typeOf(e))
	case *ast.SliceExpr:
		return ev.evalExpr(x.X)
	case *ast.StarExpr:
		return filterShallow(ev.evalExpr(x.X), ev.typeOf(e))
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ev.evalExpr(x.X)
		}
		return absval{}
	case *ast.CallExpr:
		res := ev.evalCall(x)
		if len(res) > 0 {
			return res[0]
		}
	case *ast.CompositeLit:
		var out absval
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out, _ = mergeVal(out, ev.evalExpr(elt))
		}
		return filterShallow(out, ev.typeOf(e))
	case *ast.TypeAssertExpr:
		return filterShallow(ev.evalExpr(x.X), ev.typeOf(e))
	}
	return absval{}
}

// evalTuple evaluates a multi-value expression into n abstract values.
func (ev *evaluator) evalTuple(e ast.Expr, n int) []absval {
	var vals []absval
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		vals = ev.evalCall(call)
	} else {
		// Comma-ok forms: map index, type assert, channel receive.
		vals = []absval{ev.evalExpr(e)}
	}
	for len(vals) < n {
		vals = append(vals, absval{})
	}
	return vals[:n]
}

// poolFanOutNames are the worker-pool entry points whose reachability
// ctxflow tracks; matching is by function name plus a context parameter in
// the callee's signature, so self-contained fixtures work like the real
// internal/pool.
var poolFanOutNames = map[string]bool{
	"ForEachCtx": true, "Go": true,
}

// evalCall computes per-result abstract values of a call, applies call-site
// sinks (a tainted argument handed to a callee that stores it somewhere
// persistent), and accumulates pool reachability.
func (ev *evaluator) evalCall(call *ast.CallExpr) []absval {
	info := ev.info()
	nres := 1
	if t := ev.typeOf(call); t != nil {
		if tup, ok := t.(*types.Tuple); ok {
			nres = tup.Len()
		}
	}
	res := make([]absval, max(nres, 1))

	if isBuiltinAppend(info, call) {
		return ev.evalAppend(call, res)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return res // len/cap/make/new/copy/...: no aliasing we track
		}
	}

	// Scratch roots: a method on one of the recycled pools handing out a
	// slice or pointer result.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if poolName, ok := scratchPoolTypeName(ev.typeOf(sel.X)); ok {
			if sig, ok := ev.typeOf(call.Fun).(*types.Signature); ok {
				for k := 0; k < sig.Results().Len() && k < len(res); k++ {
					switch sig.Results().At(k).Type().Underlying().(type) {
					case *types.Slice, *types.Pointer:
						res[k].scratch = chain{fmt.Sprintf("scratch from (*%s).%s at %s",
							poolName, sel.Sel.Name, ev.posStr(call.Pos()))}
					}
				}
			}
		}
	}

	// Pool fan-out reachability (direct).
	if name := calleeName(call); poolFanOutNames[name] {
		if sig, ok := ev.typeOf(call.Fun).(*types.Signature); ok && sigTakesContext(sig) {
			ev.sumSetPoolReach(chain{fmt.Sprintf("calls %s at %s", name, ev.posStr(call.Pos()))})
		}
	}

	callee := ev.prog.staticCallee(info, call)
	if callee == nil {
		// Unknown callee (stdlib, dynamic): results may alias any argument.
		var union absval
		for _, a := range call.Args {
			union, _ = mergeVal(union, ev.evalExpr(a))
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, isID := sel.X.(*ast.Ident); !isID || pkgNameOf(info, id) == "" {
				union, _ = mergeVal(union, ev.evalExpr(sel.X))
			}
		}
		if union.empty() {
			return res
		}
		if sig, ok := ev.typeOf(call.Fun).(*types.Signature); ok {
			for k := 0; k < sig.Results().Len() && k < len(res); k++ {
				res[k], _ = mergeVal(res[k], filterShallow(union, sig.Results().At(k).Type()))
			}
		}
		return res
	}

	// Pool fan-out reachability (transitive through the callee).
	if callee.sum.poolReach != nil {
		ev.sumSetPoolReach(appendChain(
			chain{fmt.Sprintf("calls %s at %s", callee.name(), ev.posStr(call.Pos()))},
			callee.sum.poolReach...))
	}

	// Map arguments (receiver is parameter 0) to callee parameter indices.
	type argPair struct {
		idx int
		val absval
	}
	var pairs []argPair
	sig := callee.fn.Type().(*types.Signature)
	base := 0
	if sig.Recv() != nil {
		base = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			pairs = append(pairs, argPair{0, ev.evalExpr(sel.X)})
		}
	}
	np := sig.Params().Len()
	for i, a := range call.Args {
		pi := i
		if np > 0 && pi >= np {
			pi = np - 1 // variadic extras share the last parameter
		}
		pairs = append(pairs, argPair{base + pi, ev.evalExpr(a)})
	}

	// Call-site sink: a scratch-tainted argument handed to a callee that
	// stores that parameter somewhere persistent.
	for _, p := range pairs {
		if p.idx >= len(callee.sum.persist) || callee.sum.persist[p.idx] == nil {
			continue
		}
		if p.val.scratch != nil && ev.reporting {
			ev.report(call.Pos(),
				"recycled scratch escapes through this call: %s — a Put will hand the same memory to the next user; copy before publishing",
				chainString(appendChain(p.val.scratch, callee.sum.persist[p.idx]...)))
		}
		for j := 0; j < ev.fi.nparams && j < 64; j++ {
			if p.val.params&(1<<uint(j)) != 0 {
				ev.sumSetPersist(j, appendChain(
					chain{fmt.Sprintf("passed to %s at %s", callee.name(), ev.posStr(call.Pos()))},
					callee.sum.persist[p.idx]...))
			}
		}
	}

	// Results from the callee summary.
	for k := 0; k < callee.nresults && k < len(res); k++ {
		if callee.sum.retScratch[k] != nil && res[k].scratch == nil {
			res[k].scratch = appendChain(callee.sum.retScratch[k],
				fmt.Sprintf("returned by %s at %s", callee.name(), ev.posStr(call.Pos())))
		}
		mask := callee.sum.retParams[k]
		if mask == 0 {
			continue
		}
		for _, p := range pairs {
			if mask&(1<<uint(p.idx)) == 0 {
				continue
			}
			if p.val.scratch != nil && res[k].scratch == nil {
				res[k].scratch = appendChain(p.val.scratch, fmt.Sprintf("through %s", callee.name()))
			}
			res[k].params |= p.val.params
		}
	}
	return res
}

// evalAppend models the append builtin: the result aliases the destination,
// and aliases an appended value only when copying that value keeps a
// reference (spread of a deep-element slice, or a deep element value).
func (ev *evaluator) evalAppend(call *ast.CallExpr, res []absval) []absval {
	if len(call.Args) == 0 {
		return res
	}
	out := ev.evalExpr(call.Args[0])
	for i, a := range call.Args[1:] {
		v := ev.evalExpr(a)
		if v.empty() {
			continue
		}
		t := ev.typeOf(a)
		if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
			// append(dst, src...): element values are copied out of src.
			if sl, ok := t.Underlying().(*types.Slice); ok {
				t = sl.Elem()
			}
		}
		out, _ = mergeVal(out, filterShallow(v, t))
	}
	res[0] = out
	return res
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

func filterShallow(v absval, t types.Type) absval {
	if t != nil && isShallow(t) {
		return absval{}
	}
	return v
}

func appendChain(c chain, steps ...string) chain {
	out := make(chain, len(c), len(c)+len(steps))
	copy(out, c)
	for _, s := range steps {
		if s == "" {
			continue
		}
		if len(out) >= maxChain {
			break
		}
		out = append(out, s)
	}
	return out
}

func (ev *evaluator) report(pos token.Pos, format string, args ...any) {
	if ev.pass != nil {
		ev.pass.Reportf(pos, "arenaescape", format, args...)
	}
}

func (ev *evaluator) sumSetRetScratch(k int, c chain) {
	if c == nil || k >= len(ev.fi.sum.retScratch) || ev.fi.sum.retScratch[k] != nil {
		return
	}
	ev.fi.sum.retScratch[k] = c
	ev.sumChanged = true
}

func (ev *evaluator) sumOrRetParams(k int, mask uint64) {
	if k >= len(ev.fi.sum.retParams) || mask&^ev.fi.sum.retParams[k] == 0 {
		return
	}
	ev.fi.sum.retParams[k] |= mask
	ev.sumChanged = true
}

func (ev *evaluator) sumSetPersist(j int, c chain) {
	if c == nil || j >= len(ev.fi.sum.persist) || ev.fi.sum.persist[j] != nil {
		return
	}
	ev.fi.sum.persist[j] = c
	ev.sumChanged = true
}

func (ev *evaluator) sumSetPoolReach(c chain) {
	if c == nil || ev.fi.sum.poolReach != nil {
		return
	}
	ev.fi.sum.poolReach = c
	ev.sumChanged = true
}
