package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of odrc-lint: a module-wide view of
// every type-checked package, a static call graph over it, and the Pass-like
// plumbing the whole-program checkers (arenaescape, ctxflow, lockdiscipline)
// run on. The per-function dataflow itself lives in summary.go.

// pkgUnit is one type-checked package of the program.
type pkgUnit struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// program is the whole module after type-checking: the unit list plus the
// lazily built function index and dataflow summaries shared by the
// interprocedural checkers.
type program struct {
	fset  *token.FileSet
	units []*pkgUnit

	funcs   map[*types.Func]*funcInfo
	ordered []*funcInfo // funcs in deterministic (file, position) order
}

// funcInfo is one function declaration of the module, with everything the
// summary engine needs: its AST, its package's type info, its callers (for
// the fixpoint worklist), and its computed summary.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	unit *pkgUnit

	nparams  int // receiver (when present) + declared parameters
	nresults int
	ctxParam int // flat index of the context.Context parameter, or -1

	sum     *summary
	callers map[*funcInfo]bool
}

// name renders the function for messages: "Pkgname.Func" or "(*T).Method".
func (fi *funcInfo) name() string {
	if recv := fi.fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			return "(*" + typeName(p.Elem()) + ")." + fi.fn.Name()
		}
		return typeName(t) + "." + fi.fn.Name()
	}
	return fi.fn.Name()
}

func typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// boundary reports whether the function hands its results past the engine
// boundary: an exported name on either a package-level function or a method
// of an exported type — except a scratch pool's own methods, which are where
// scratch originates rather than escapes.
func (fi *funcInfo) boundary() bool {
	if !fi.fn.Exported() {
		return false
	}
	recv := fi.fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	if _, pool := scratchPoolTypeName(recv.Type()); pool {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Exported()
	}
	return true
}

// buildProgram indexes every function declaration of the units and wires the
// reverse call graph. Summaries start empty; computeSummaries fills them.
func buildProgram(fset *token.FileSet, units []*pkgUnit) *program {
	prog := &program{fset: fset, units: units, funcs: map[*types.Func]*funcInfo{}}
	for _, u := range units {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{
					fn: fn, decl: fd, unit: u,
					ctxParam: -1,
					sum:      newSummary(),
					callers:  map[*funcInfo]bool{},
				}
				sig := fn.Type().(*types.Signature)
				if sig.Recv() != nil {
					fi.nparams++
				}
				fi.nparams += sig.Params().Len()
				fi.nresults = sig.Results().Len()
				for i := 0; i < sig.Params().Len(); i++ {
					if isContextType(sig.Params().At(i).Type()) {
						fi.ctxParam = i
						if sig.Recv() != nil {
							fi.ctxParam++
						}
						break
					}
				}
				fi.sum.retScratch = make([]chain, fi.nresults)
				fi.sum.retParams = make([]uint64, fi.nresults)
				fi.sum.persist = make([]chain, fi.nparams)
				prog.funcs[fn] = fi
				prog.ordered = append(prog.ordered, fi)
			}
		}
	}
	sort.Slice(prog.ordered, func(i, j int) bool {
		a, b := prog.fset.Position(prog.ordered[i].decl.Pos()), prog.fset.Position(prog.ordered[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	// Reverse edges: for each static call site, record the caller.
	for _, fi := range prog.ordered {
		caller := fi
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := prog.staticCallee(caller.unit.info, call); callee != nil {
				callee.callers[caller] = true
			}
			return true
		})
	}
	return prog
}

// staticCallee resolves a call expression to a module function declaration,
// or nil for builtins, dynamic calls, and out-of-module callees.
func (p *program) staticCallee(info *types.Info, call *ast.CallExpr) *funcInfo {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// A method of an instantiated generic type resolves to its own
	// *types.Func; the declaration, and so the summary, belongs to the
	// generic origin.
	return p.funcs[fn.Origin()]
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

// isShallow reports whether values of t are reference-free: copying such a
// value cannot keep an alias of any buffer it was copied out of. Strings are
// immutable and count as shallow.
func isShallow(t types.Type) bool {
	return isShallowSeen(t, map[types.Type]bool{})
}

func isShallowSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if seen[t] {
		return true // recursion through a pointer would already be deep
	}
	seen[t] = true
	switch tt := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if !isShallowSeen(tt.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return isShallowSeen(tt.Elem(), seen)
	default:
		// Pointers, slices, maps, chans, funcs, interfaces, type params.
		return false
	}
}

// scratchPoolTypeName reports whether t (through pointers) is one of the
// recycled scratch pools whose handed-out buffers must not outlive the run:
// geocache.Arena, matched by type name (like sharedbuf, so fixtures stay
// self-contained), and freelist.List, matched by its generic origin's name
// and package, whatever it is instantiated with.
func scratchPoolTypeName(t types.Type) (string, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Origin().Obj()
	switch obj.Name() {
	case "Arena":
		return "Arena", true
	case "List":
		if obj.Pkg() != nil && pkgIs(obj.Pkg().Path(), "internal/freelist") {
			return "List", true
		}
	}
	return "", false
}

// persistentTypeName reports whether t (through pointers) is a struct that
// outlives the run from scratch's point of view: the Report handed back to
// the caller and the geometry cache's memo tables. A scratch buffer written
// into either survives its Put and corrupts a later (or concurrent) reader.
func persistentTypeName(t types.Type) (string, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	switch name := n.Obj().Name(); name {
	case "Report", "Cache":
		return name, true
	}
	return "", false
}

// ProgPass is the whole-program analogue of Pass: the state handed to each
// interprocedural checker.
type ProgPass struct {
	Prog *program

	findings *[]Finding
	seen     map[string]bool
}

// Fset returns the program's file set.
func (p *ProgPass) Fset() *token.FileSet { return p.Prog.fset }

// Reportf records a finding at pos, deduplicating identical (pos, check)
// reports — interprocedural walks can reach the same sink twice.
func (p *ProgPass) Reportf(pos token.Pos, check, format string, args ...any) {
	position := p.Prog.fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%d:%s", position.Filename, position.Line, position.Column, check)
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ProgramChecker is one interprocedural checker: it sees the whole module at
// once instead of one package at a time.
type ProgramChecker struct {
	Name string
	Doc  string
	Run  func(*ProgPass)
}

// ProgramCheckers is the interprocedural suite, in reporting order.
var ProgramCheckers = []*ProgramChecker{ArenaEscape, CtxFlow, LockDiscipline}

// runProgramCheckers runs the interprocedural checkers over the program and
// returns their findings (pre-waiver, unsorted).
func runProgramCheckers(prog *program) []Finding {
	var findings []Finding
	pass := &ProgPass{Prog: prog, findings: &findings, seen: map[string]bool{}}
	computeSummaries(prog)
	for _, c := range ProgramCheckers {
		c.Run(pass)
	}
	return findings
}

// posString renders a position for use inside a finding message.
func (p *program) posString(pos token.Pos) string {
	ps := p.fset.Position(pos)
	return fmt.Sprintf("%s:%d", ps.Filename, ps.Line)
}

// exprPath flattens a selector/index chain to a stable textual key, e.g.
// "a.polys" — used to match a mutex's base object against a guarded field's
// base object in lockdiscipline, and for readable messages.
func exprPath(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := exprPath(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	case *ast.IndexExpr:
		base, ok := exprPath(x.X)
		if !ok {
			return "", false
		}
		return base + "[]", true
	}
	return "", false
}

// chainString joins an escape chain for a message.
func chainString(c chain) string {
	return strings.Join(c, " → ")
}
