package analysis

import (
	"go/ast"
	"go/types"
)

// SharedBuf guards the geometry-cache immutability contract: the cross-rule
// cache hands every rule the same flatten slice, packed edge buffer, and MBR
// table, so an element write or in-place sort by one consumer would corrupt
// every other rule's input (and break bit-identical reports). Only the
// producing packages may construct or fill these buffers; everyone else
// treats them as frozen.
var SharedBuf = &Checker{
	Name: "sharedbuf",
	Doc:  "cached geometry buffers (PlacedPoly slices, Edges, MBRTable) are immutable outside their producing packages",
	Run:  runSharedBuf,
}

// sharedBufProducers are the packages that build the cached buffers and are
// allowed to write into them while doing so.
var sharedBufProducers = []string{
	"internal/geocache",
	"internal/kernels",
	"internal/layout",
}

// sharedBufTypes names the cached buffer types. Matching is by type name so
// the checker works on any package that round-trips these buffers, including
// the self-contained lint fixtures.
var sharedBufTypes = map[string]bool{
	"PlacedPoly": true, // instance records: only geocache.Cache.Flatten's callers (the benchmark probe, tests) receive cached ones; the engine reads Edges and boxes
	"Edges":      true, // packed edge buffer (the flatten's own vertex array), device-resident
	"MBRTable":   true, // per-layer MBRs (the cached boxes) + global x-order
}

func runSharedBuf(p *Pass) {
	for _, prod := range sharedBufProducers {
		if pkgIs(p.PkgPath, prod) {
			return
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if name, ok := sharedBufWrite(p.Info, lhs); ok {
						p.Reportf(st.Pos(), "sharedbuf",
							"write into shared %s buffer; cached geometry is immutable outside its producer — copy before mutating", name)
					}
				}
			case *ast.IncDecStmt:
				if name, ok := sharedBufWrite(p.Info, st.X); ok {
					p.Reportf(st.Pos(), "sharedbuf",
						"write into shared %s buffer; cached geometry is immutable outside its producer — copy before mutating", name)
				}
			case *ast.CallExpr:
				if !isSortCall(p.Info, st) || len(st.Args) == 0 {
					return true
				}
				if name, ok := sharedBufSlice(p.Info, st.Args[0]); ok {
					p.Reportf(st.Pos(), "sharedbuf",
						"in-place sort of shared %s buffer; cached geometry is immutable outside its producer — sort a copy", name)
				}
			}
			return true
		})
	}
}

// sharedBufWrite reports whether the assignment target lhs stores through a
// cached buffer: an element of a cached slice (x[i] = v, x[i].F = v) or a
// field reached from a cached struct (e.X0[i] = v, e.N = v).
func sharedBufWrite(info *types.Info, lhs ast.Expr) (string, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			if name, ok := sharedBufSlice(info, e.X); ok {
				return name, true
			}
			lhs = e.X
		case *ast.SelectorExpr:
			if name, ok := sharedBufNamed(typeOf(info, e.X)); ok {
				return name, true
			}
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return "", false
		}
	}
}

// sharedBufSlice reports whether expr is a cached buffer slice: a slice whose
// element type is a cached type, or a field selected from a cached struct
// (t.XOrder, e.X0).
func sharedBufSlice(info *types.Info, expr ast.Expr) (string, bool) {
	if t := typeOf(info, expr); t != nil {
		if sl, ok := t.Underlying().(*types.Slice); ok {
			if name, ok := sharedBufNamed(sl.Elem()); ok {
				return name, true
			}
		}
	}
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		if name, ok := sharedBufNamed(typeOf(info, sel.X)); ok {
			return name, true
		}
	}
	return "", false
}

// sharedBufNamed reports whether t (through pointers) is one of the cached
// buffer types, returning its name.
func sharedBufNamed(t types.Type) (string, bool) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			name := tt.Obj().Name()
			return name, sharedBufTypes[name]
		default:
			return "", false
		}
	}
}

func typeOf(info *types.Info, expr ast.Expr) types.Type {
	if tv, ok := info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}
