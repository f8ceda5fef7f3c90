package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline machine-checks the mutex contracts that today live in
// comments: a struct field annotated
//
//	free []T //odrc:guardedby mu
//
// may only be read or written with the named sibling mutex held in the same
// function. Held-ness is tracked lexically through the function body —
// base.mu.Lock()/RLock() acquires, Unlock()/RUnlock() releases, and a
// deferred Unlock keeps the lock held to the end of the function. The base
// expression must match between the lock and the access (l.mu guards l.free,
// a.rects.mu guards a.rects.free), so independent instances stay
// independent. Annotations naming a nonexistent sibling are findings
// themselves, so guards cannot rot silently.
//
// Guards are collected and checked one package at a time, so an annotated
// field must be unexported: an exported guarded field is a finding, because
// its accesses from other packages would go unchecked.
var LockDiscipline = &Checker{
	Name: "lockdiscipline",
	Doc:  "fields annotated //odrc:guardedby mu are only accessed with the named mutex held in the same function",
	Run:  runLockDiscipline,
}

const guardedByPrefix = "//odrc:guardedby"

// guardInfo is one annotated field: the mutex field name that guards it.
type guardInfo struct {
	mu    string
	field string
}

func runLockDiscipline(p *Pass) {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return
	}
	lw := &lockWalker{p: p, guards: guards}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				lw.stmts(fd.Body.List, map[string]bool{})
			}
		}
	}
}

// collectGuards parses every //odrc:guardedby annotation in the package and
// returns the guarded field objects. Malformed annotations (no field name,
// or naming a sibling that does not exist) and exported guarded fields are
// reported immediately.
func collectGuards(p *Pass) map[types.Object]guardInfo {
	guards := map[types.Object]guardInfo{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			names := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					names[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				mu, pos, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				switch {
				case mu == "":
					p.Reportf(pos, "lockdiscipline",
						"malformed annotation: want //odrc:guardedby <mutex-field>")
					continue
				case !names[mu]:
					p.Reportf(pos, "lockdiscipline",
						"//odrc:guardedby names %q, which is not a field of this struct", mu)
					continue
				}
				for _, name := range field.Names {
					if name.IsExported() {
						p.Reportf(name.Pos(), "lockdiscipline",
							"//odrc:guardedby field %s is exported: accesses from other packages go unchecked — unexport it", name.Name)
					}
					if obj := p.Info.Defs[name]; obj != nil {
						guards[obj] = guardInfo{mu: mu, field: name.Name}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the //odrc:guardedby annotation from a struct
// field's line comment or doc comment.
func guardAnnotation(field *ast.Field) (mu string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, guardedByPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, guardedByPrefix))
			if rest == "" || len(strings.Fields(rest)) != 1 {
				return "", c.Pos(), true
			}
			return rest, c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// lockWalker walks one function body in lexical order, tracking which
// "<base>.<mu>" mutexes are held, and reports guarded-field accesses outside
// their lock. The walk is branch-aware just enough for the real patterns: a
// `defer mu.Unlock()` keeps the mutex held to the end of the function,
// toggles inside a terminating if-branch (the `if bad { mu.Unlock(); return }`
// early exit) do not leak into the fall-through path, and loop or switch
// bodies cannot establish held-ness for the code after them.
type lockWalker struct {
	p      *Pass
	guards map[types.Object]guardInfo
}

func cloneHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// setHeld replaces dst's contents with src's.
func setHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// intersectHeld keeps only the mutexes held on both paths.
func intersectHeld(dst, other map[string]bool) {
	for k := range dst {
		if !other[k] {
			delete(dst, k)
		}
	}
}

func (lw *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		lw.stmt(s, held)
	}
}

func (lw *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		lw.stmts(x.List, held)
	case *ast.LabeledStmt:
		lw.stmt(x.Stmt, held)
	case *ast.IfStmt:
		lw.stmt(x.Init, held)
		lw.expr(x.Cond, held)
		body := cloneHeld(held)
		lw.stmts(x.Body.List, body)
		if x.Else != nil {
			els := cloneHeld(held)
			lw.stmt(x.Else, els)
			switch {
			case terminates(x.Body.List) && stmtTerminates(x.Else):
				// Neither branch falls through; keep the entry state.
			case terminates(x.Body.List):
				setHeld(held, els)
			case stmtTerminates(x.Else):
				setHeld(held, body)
			default:
				setHeld(held, body)
				intersectHeld(held, els)
			}
			return
		}
		if !terminates(x.Body.List) {
			intersectHeld(held, body)
		}
	case *ast.ForStmt:
		lw.stmt(x.Init, held)
		lw.expr(x.Cond, held)
		body := cloneHeld(held)
		lw.stmt(x.Post, body)
		lw.stmts(x.Body.List, body)
	case *ast.RangeStmt:
		lw.expr(x.X, held)
		body := cloneHeld(held)
		lw.stmts(x.Body.List, body)
	case *ast.SwitchStmt:
		lw.stmt(x.Init, held)
		lw.expr(x.Tag, held)
		lw.caseClauses(x.Body, held)
	case *ast.TypeSwitchStmt:
		lw.stmt(x.Init, held)
		lw.stmt(x.Assign, held)
		lw.caseClauses(x.Body, held)
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				body := cloneHeld(held)
				lw.stmt(cc.Comm, body)
				lw.stmts(cc.Body, body)
			}
		}
	case *ast.DeferStmt:
		if _, _, ok := mutexOp(lw.p.Info, x.Call); ok {
			// A deferred Unlock runs at function exit: the mutex stays
			// held for the rest of the function.
			return
		}
		body := cloneHeld(held)
		lw.expr(x.Call, body)
	case *ast.GoStmt:
		// A spawned goroutine runs concurrently; it inherits no held locks.
		lw.expr(x.Call, map[string]bool{})
	default:
		// Assignments, expression statements, declarations, returns, sends:
		// walk the expressions in source order.
		lw.expr(s, held)
	}
}

func (lw *lockWalker) caseClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clause := cloneHeld(held)
			for _, e := range cc.List {
				lw.expr(e, clause)
			}
			lw.stmts(cc.Body, clause)
		}
	}
}

// expr walks an expression (or simple statement) in lexical order, toggling
// held on mutex operations and reporting unguarded accesses. Function
// literals are walked through the statement walker so nested defers keep
// their semantics.
func (lw *lockWalker) expr(n ast.Node, held map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch x := c.(type) {
		case *ast.FuncLit:
			lw.stmts(x.Body.List, cloneHeld(held))
			return false
		case *ast.CallExpr:
			if key, op, ok := mutexOp(lw.p.Info, x); ok {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return false
			}
		case *ast.SelectorExpr:
			obj := lw.p.Info.Uses[x.Sel]
			if v, ok := obj.(*types.Var); ok {
				// A generic struct's field is used through an instantiation,
				// even in its own methods; the annotation is on the origin.
				obj = v.Origin()
			}
			g, guarded := lw.guards[obj]
			if !guarded {
				return true
			}
			base, ok := exprPath(x.X)
			if !ok {
				return true
			}
			if !held[base+"."+g.mu] {
				lw.p.Reportf(x.Pos(), "lockdiscipline",
					"%s.%s is //odrc:guardedby %s but is accessed without %s.%s held in this function",
					base, g.field, g.mu, base, g.mu)
			}
		}
		return true
	})
}

// terminates reports whether a statement list cannot fall through: it ends in
// a return, a branch (break/continue/goto), or a panic call.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(x.List)
	case *ast.ExprStmt:
		call, ok := x.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// mutexOp matches base.mu.Lock()/Unlock()/RLock()/RUnlock() on a sync
// mutex, returning the held-set key "base.mu" and the operation.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	path, okPath := exprPath(sel.X)
	if !okPath {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// exprPath flattens a selector/index chain to a stable textual key, e.g.
// "a.polys" — used to match a mutex's base object against a guarded field's
// base object, and for readable messages.
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
