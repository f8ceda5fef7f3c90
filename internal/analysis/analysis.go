// Package analysis is odrc-lint: a static-analysis suite (stdlib go/ast +
// go/types only) that machine-checks the repository's written invariants —
// the rules DESIGN.md §5 states in prose and PR reviews used to police by
// hand. Five checkers run one package at a time:
//
//   - maprange: deterministic packages must not iterate Go maps directly,
//     because map order is randomized and violation/report order would come
//     to depend on it. Keys must be collected and sorted first.
//   - clock: host work must be timed through infra.Profiler / hostPhase so
//     it enters the modeled CPU+GPU timeline; raw time.Now/time.Since calls
//     outside internal/infra, internal/bench and internal/trace silently
//     drift the modeled device clock.
//   - rawgo: all fan-out must ride the bounded worker pool (internal/pool);
//     a raw `go` statement escapes the pool's panic propagation, its worker
//     bound, and the race-tested code paths.
//   - argmut: exported functions must not sort or append in place into a
//     parameter slice (the DedupViolations bug class) — callers' slices must
//     stay untouched.
//   - sharedbuf: the geometry cache's shared buffers (PlacedPoly slices,
//     Edges, MBRTable) are immutable outside the packages that produce them.
//
// Two more run over the whole module at once, on its static call graph
// (program.go):
//
//   - ctxflow: contexts must flow — no Background/TODO outside package main,
//     and no dropped ctx on the way to a pool fan-out.
//   - lockdiscipline: a field annotated //odrc:guardedby mu is accessed only
//     with the named mutex held.
//
// Run is the one entry point; it has no options. It feeds every package to
// check, the same pipeline the fixture tests drive.
//
// Intentional exceptions are waived with a trailing comment on the offending
// line:
//
//	start := time.Now() //odrc:allow clock — measured Wall, feeds HostAdvance
//
// A waiver names one check and must carry a reason after an em dash (or
// "--"). Waivers are themselves checked: a waiver on a line that no longer
// triggers its check is a stale-waiver finding, so exceptions cannot outlive
// the code they excuse.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one lint result, rendered as "file:line: [check] message".
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the canonical file:line: [check] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// Pass is the per-package state handed to each checker.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Checker is one invariant checker.
type Checker struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Checkers is the full suite, in reporting order.
var Checkers = []*Checker{MapRange, Clock, RawGo, ArgMut, SharedBuf}

// WaiverCheck is the pseudo-check name used for findings about the waiver
// comments themselves (malformed, unknown check, stale).
const WaiverCheck = "waiver"

// knownCheck reports whether name names a real checker (per-package or
// interprocedural).
func knownCheck(name string) bool {
	for _, c := range Checkers {
		if c.Name == name {
			return true
		}
	}
	for _, c := range ProgramCheckers {
		if c.Name == name {
			return true
		}
	}
	return false
}

// pkgIs reports whether pkgPath's trailing segments equal suffix (e.g.
// pkgIs("opendrc/internal/core", "internal/core") is true, but a package
// merely named "core" elsewhere does not match).
func pkgIs(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// deterministicPkgNames lists the packages whose outputs must be
// bit-identical across runs and worker counts; maprange applies only here.
var deterministicPkgNames = []string{"core", "checks", "kernels", "klayout", "layout", "rules"}

func isDeterministicPkg(pkgPath string) bool {
	for _, name := range deterministicPkgNames {
		if pkgIs(pkgPath, "internal/"+name) {
			return true
		}
	}
	return false
}

// waiver is one parsed //odrc:allow comment.
type waiver struct {
	pos   token.Position
	check string
	used  bool
}

const waiverPrefix = "//odrc:allow"

// collectWaivers parses every //odrc:allow comment in the files. Malformed
// waivers are returned as findings immediately.
func collectWaivers(fset *token.FileSet, files []*ast.File) ([]*waiver, []Finding) {
	var ws []*waiver
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, waiverPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, waiverPrefix))
				name, reason, ok := splitWaiver(rest)
				switch {
				case !ok:
					bad = append(bad, Finding{Pos: pos, Check: WaiverCheck,
						Message: "malformed waiver: want //odrc:allow <check> — <reason>"})
				case !knownCheck(name):
					bad = append(bad, Finding{Pos: pos, Check: WaiverCheck,
						Message: fmt.Sprintf("waiver names unknown check %q", name)})
				case reason == "":
					bad = append(bad, Finding{Pos: pos, Check: WaiverCheck,
						Message: fmt.Sprintf("waiver for %q has no reason after the dash", name)})
				default:
					ws = append(ws, &waiver{pos: pos, check: name})
				}
			}
		}
	}
	return ws, bad
}

// splitWaiver splits "check — reason" (em dash or "--") into its parts.
func splitWaiver(s string) (check, reason string, ok bool) {
	for _, dash := range []string{"—", "--"} {
		if i := strings.Index(s, dash); i >= 0 {
			return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+len(dash):]), true
		}
	}
	return "", "", false
}

// applyWaivers suppresses findings covered by a same-file same-line waiver
// for the same check, then reports every waiver that excused nothing.
func applyWaivers(findings []Finding, ws []*waiver) []Finding {
	out := findings[:0]
	for _, f := range findings {
		waived := false
		for _, w := range ws {
			if w.check == f.Check && w.pos.Filename == f.Pos.Filename && w.pos.Line == f.Pos.Line {
				w.used = true
				waived = true
			}
		}
		if !waived {
			out = append(out, f)
		}
	}
	for _, w := range ws {
		if !w.used {
			out = append(out, Finding{Pos: w.pos, Check: WaiverCheck,
				Message: fmt.Sprintf("stale waiver: the line no longer triggers %q — remove the //odrc:allow", w.check)})
		}
	}
	return out
}

// check runs every checker over the type-checked units — the per-package
// checkers one package at a time, the interprocedural ones over all of them
// as one program — applies the units' waivers module-wide, and returns the
// surviving findings sorted. It is the one pipeline behind Run and the
// fixture tests. Waivers apply module-wide because an interprocedural
// finding can only be excused where it is reported, and a waiver is stale
// when nothing in the entire run used it.
func check(fset *token.FileSet, units []*pkgUnit) []Finding {
	var findings []Finding
	for _, u := range units {
		pass := &Pass{
			Fset: fset, Files: u.files, Pkg: u.pkg, Info: u.info, PkgPath: u.path,
			findings: &findings,
		}
		for _, c := range Checkers {
			c.Run(pass)
		}
	}
	findings = append(findings, runProgramCheckers(buildProgram(fset, units))...)
	var ws []*waiver
	for _, u := range units {
		uws, bad := collectWaivers(fset, u.files)
		ws = append(ws, uws...)
		findings = append(findings, bad...)
	}
	findings = applyWaivers(findings, ws)
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by file, line, column, then check name.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" when it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// selectorPkgCall matches expr against pkg.Name(...) for an imported package
// path, returning the selected name and arguments.
func selectorPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string) (name string, args []ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID || pkgNameOf(info, id) != pkgPath {
		return "", nil, false
	}
	return sel.Sel.Name, call.Args, true
}
