package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer of odrc-lint: a module-wide view of
// every type-checked package, a static call graph over it, and the Pass-like
// plumbing the whole-program checkers (ctxflow, lockdiscipline) run on.

// pkgUnit is one type-checked package of the program.
type pkgUnit struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// program is the whole module after type-checking: the unit list plus the
// function index the interprocedural checkers share.
type program struct {
	fset  *token.FileSet
	units []*pkgUnit

	funcs   map[*types.Func]*funcInfo
	ordered []*funcInfo // funcs in deterministic (file, position) order
}

// funcInfo is one function declaration of the module: its AST, its
// package's type info, and what ctxflow derives for it.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	unit *pkgUnit

	takesCtx  bool  // has a context.Context parameter
	poolReach chain // how it transitively reaches a pool fan-out, or nil
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

// buildProgram indexes every function declaration of the units in
// deterministic (file, position) order.
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
				fi := &funcInfo{fn: fn, decl: fd, unit: u,
					takesCtx: sigTakesContext(fn.Type().(*types.Signature))}
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
	// *types.Func; the declaration belongs to the generic origin.
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

// ProgPass is the whole-program analogue of Pass: the state handed to each
// interprocedural checker.
type ProgPass struct {
	Prog *program

	findings *[]Finding
	seen     map[string]bool
}

// Reportf records a finding at pos, deduplicating identical (pos, check)
// reports.
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
var ProgramCheckers = []*ProgramChecker{CtxFlow, LockDiscipline}

// runProgramCheckers runs the interprocedural checkers over the program and
// returns their findings (pre-waiver, unsorted).
func runProgramCheckers(prog *program) []Finding {
	var findings []Finding
	pass := &ProgPass{Prog: prog, findings: &findings, seen: map[string]bool{}}
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
