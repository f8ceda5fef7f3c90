package kernels

import (
	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
)

// Hit is one violation found by a kernel, tagged with the packed polygon
// indices involved (B == -1 for single-polygon rules).
type Hit struct {
	Marker checks.Marker
	A, B   int32
}

// Collector receives hits. Kernels execute threads in tid order on the
// simulated device, so collection is deterministic.
type Collector func(Hit)

// Launcher is where a kernel's launches go: a *gpu.Stream enqueues each on
// the modeled timeline as it is evaluated; a *gpu.Tape evaluates now and
// replays onto a stream later, so independent rows and rules can be
// simulated off the stream's goroutine.
type Launcher interface {
	Launch(name string, n int, body gpu.KernelFunc) int64
}

// PairFilter selects which edge pairs a sweep kernel tests.
type PairFilter int

// Sweep-kernel pair filters.
const (
	// FilterSpacing tests exterior-facing pairs of *different* polygons
	// (inter-polygon spacing), plus diagonal corners.
	FilterSpacing PairFilter = iota
	// FilterWidth tests interior-facing pairs of the *same* polygon.
	FilterWidth
	// FilterNotch tests exterior-facing pairs of the same polygon.
	FilterNotch
)

// WidthBrute launches the brute-force intra-polygon executor: one thread per
// polygon, each enumerating its own edge pairs — the paper's small-task
// branch ("parallel threads are launched for each polygon (or pair), in
// which edge pairs are enumerated and checked").
func WidthBrute(s Launcher, e *Edges, min int64, c Collector) {
	s.Launch("width-brute", e.NumPolys(), func(tid int) int64 {
		lo, hi := e.PolyEdges(tid)
		var ops int64
		for i := lo; i < hi; i++ {
			ei := e.Edge(tid, i)
			for j := i + 1; j < hi; j++ {
				ops++
				if m, ok := checks.EdgePairWidth(ei, e.Edge(tid, j), min); ok {
					c(Hit{Marker: m, A: int32(tid), B: -1})
				}
			}
		}
		return ops
	})
}

// NotchBrute launches the brute-force intra-polygon notch (self-spacing)
// executor: one thread per polygon, each running notchPoly.
func NotchBrute(s Launcher, e *Edges, lim checks.SpacingLimit, c Collector) {
	s.Launch("notch-brute", e.NumPolys(), func(tid int) int64 {
		return notchPoly(e, int32(tid), lim, c)
	})
}

// notchPoly is the notch executors' thread body: polygon p's edge pairs
// through checks.EdgePairSpacingLim, hits tagged A = p. A thread is charged
// one op per pair, n(n−1)/2 for n edges, whether or not it tests them.
//
// A polygon of at most four edges returns its ops without loading an edge,
// because it cannot notch. A notch needs two antiparallel axis-parallel
// edges at a nonzero distance with exterior between them. Two edges that
// share a vertex and are antiparallel are collinear (distance 0); in a
// triangle every pair shares a vertex. In a quadrilateral the only other
// pairs are opposite sides, and opposite sides that are antiparallel and
// apart bound a trapezoid: convex, its interior between them. Polygons are
// clockwise (geom.NewPolygon), so each edge's interior side faces the other
// edge, and the predicate's exterior test rejects the pair. Skipping the
// loop changes no hit and, with ops charged in full, no kernel record.
func notchPoly(e *Edges, p int32, lim checks.SpacingLimit, c Collector) int64 {
	lo, hi := e.PolyEdges(int(p))
	n := int64(hi - lo)
	if n <= 4 {
		return n * (n - 1) / 2
	}
	for i := lo; i < hi; i++ {
		ei := e.Edge(int(p), i)
		for j := i + 1; j < hi; j++ {
			if m, ok := checks.EdgePairSpacingLim(ei, e.Edge(int(p), j), lim); ok {
				c(Hit{Marker: m, A: p, B: -1})
			}
		}
	}
	return n * (n - 1) / 2
}

// AreaKernel launches one thread per polygon computing the Shoelace doubled
// area over the packed edges and flagging polygons below minArea2.
func AreaKernel(s Launcher, e *Edges, minArea2 int64, c Collector) {
	s.Launch("area", e.NumPolys(), func(tid int) int64 {
		lo, hi := e.PolyEdges(tid)
		var s2 int64
		box := geom.EmptyRect()
		for i := lo; i < hi; i++ {
			a, b := e.Pts[i], e.Pts[e.succ(tid, i)]
			s2 += a.Cross(b)
			box = box.Include(a)
		}
		if s2 < 0 {
			s2 = -s2
		}
		if s2 < minArea2 {
			c(Hit{Marker: checks.Marker{Box: box, Dist: s2}, A: int32(tid), B: -1})
		}
		return int64(hi - lo)
	})
}

// RectilinearKernel launches one thread per polygon flagging any
// non-axis-aligned edge.
func RectilinearKernel(s Launcher, e *Edges, c Collector) {
	s.Launch("rectilinear", e.NumPolys(), func(tid int) int64 {
		lo, hi := e.PolyEdges(tid)
		box := geom.EmptyRect()
		bad := false
		for i := lo; i < hi; i++ {
			a, b := e.Pts[i], e.Pts[e.succ(tid, i)]
			box = box.Include(a)
			if a.X != b.X && a.Y != b.Y {
				bad = true
			}
		}
		if bad {
			c(Hit{Marker: checks.Marker{Box: box}, A: int32(tid), B: -1})
		}
		return int64(hi - lo)
	})
}

// SpacingBrute launches the brute-force pair executor: one thread per
// candidate polygon pair, enumerating the cross product of their edges.
// Each pair is prescreened on the packed coordinates before the edge
// structs are materialized: when the two edge boxes are separated by at
// least lim.Reach() on either axis, the parallel-edge test cannot fire
// (the perpendicular distance is at least the separation, and a
// same-axis separation kills the projection overlap) and neither can the
// corner test (the corners lie inside the edge boxes, so their dx or dy
// is at least the separation, which is >= lim.Min). The skip changes
// neither the emitted markers nor their order, and the modeled op count
// still charges both tests, so reports stay bit-identical.
func SpacingBrute(s Launcher, e *Edges, pairs [][2]int32, lim checks.SpacingLimit, c Collector) {
	reach := lim.Reach()
	s.Launch("space-brute", len(pairs), func(tid int) int64 {
		hit := Hit{A: pairs[tid][0], B: pairs[tid][1]}
		pa, pb := int(hit.A), int(hit.B)
		alo, ahi := e.PolyEdges(pa)
		blo, bhi := e.PolyEdges(pb)
		var ops int64
		for i := alo; i < ahi; i++ {
			a, an := e.Pts[i], e.Pts[e.succ(pa, i)]
			ixlo, ixhi := minI64(a.X, an.X), maxI64(a.X, an.X)
			iylo, iyhi := minI64(a.Y, an.Y), maxI64(a.Y, an.Y)
			var ei, eo geom.Edge
			loaded := false
			for j := blo; j < bhi; j++ {
				ops += 2
				b, bn := e.Pts[j], e.Pts[e.succ(pb, j)]
				if minI64(b.X, bn.X)-ixhi >= reach || ixlo-maxI64(b.X, bn.X) >= reach ||
					minI64(b.Y, bn.Y)-iyhi >= reach || iylo-maxI64(b.Y, bn.Y) >= reach {
					continue
				}
				if !loaded {
					ei, eo = e.Edge(pa, i), e.NextEdge(pa, i)
					loaded = true
				}
				fj := e.Edge(pb, j)
				if m, ok := checks.EdgePairSpacingLim(ei, fj, lim); ok {
					hit.Marker = m
					c(hit)
				}
				if m, ok := checks.CornerSpacing(ei, eo, fj, e.NextEdge(pb, j), lim.Min); ok {
					hit.Marker = m
					c(hit)
				}
			}
		}
		return ops
	})
}

// EnclosureKernel launches one thread per (inner, outer) candidate pair,
// testing containment (crossing-number over the packed outer edges) and the
// per-side enclosure margins.
func EnclosureKernel(s Launcher, inner, outer *Edges, pairs [][2]int32, min int64, c Collector) {
	s.Launch("enclosure", len(pairs), func(tid int) int64 {
		pi, po := pairs[tid][0], pairs[tid][1]
		ilo, ihi := inner.PolyEdges(int(pi))
		olo, ohi := outer.PolyEdges(int(po))
		var ops int64
		// Containment: every inner vertex inside the outer polygon.
		contained := true
		for i := ilo; i < ihi && contained; i++ {
			ops += int64(ohi - olo)
			if !pointInPacked(outer, int(po), inner.Pts[i].X, inner.Pts[i].Y) {
				contained = false
			}
		}
		if !contained {
			box := geom.EmptyRect()
			for i := ilo; i < ihi; i++ {
				box = box.Include(inner.Pts[i])
			}
			c(Hit{Marker: checks.Marker{Box: box, Dist: -1}, A: pi, B: po})
			return ops
		}
		for i := ilo; i < ihi; i++ {
			ei := inner.Edge(int(pi), i)
			for j := olo; j < ohi; j++ {
				ops++
				if m, ok := checks.EdgePairEnclosure(ei, outer.Edge(int(po), j), min); ok {
					c(Hit{Marker: m, A: pi, B: po})
				}
			}
		}
		return ops
	})
}

// pointInPacked is the crossing-number containment test over packed polygon
// p, boundary-inclusive, matching geom.Polygon.ContainsPoint.
func pointInPacked(e *Edges, p int, x, y int64) bool {
	inside := false
	lo, hi := e.PolyEdges(p)
	for i := lo; i < hi; i++ {
		a, b := e.Pts[i], e.Pts[e.succ(p, i)]
		ax, ay := a.X, a.Y
		bx, by := b.X, b.Y
		if ax == bx && x == ax && y >= minI64(ay, by) && y <= maxI64(ay, by) {
			return true
		}
		if ay == by && y == ay && x >= minI64(ax, bx) && x <= maxI64(ax, bx) {
			return true
		}
		if (ay > y) != (by > y) {
			num := (y-ay)*(bx-ax) + ax*(by-ay)
			den := by - ay
			if den > 0 {
				if x*den < num {
					inside = !inside
				}
			} else {
				if x*den > num {
					inside = !inside
				}
			}
		}
	}
	return inside
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PolyFromPacked reconstructs polygon p from the packed buffer (used by the
// enclosure-evaluation kernel, whose semantics are defined on polygons).
func PolyFromPacked(e *Edges, p int) geom.Polygon {
	lo, hi := e.PolyEdges(p)
	return geom.MustPolygon(e.Pts[lo:hi])
}

// EnclosureEval launches one thread per inner shape (via), resolving the
// enclosure rule against that via's candidate outer polygons with exactly
// the sequential mode's semantics (checks.EvaluateEnclosure): pass when some
// candidate covers the via with margin >= min, report best-candidate
// violations otherwise.
func EnclosureEval(s Launcher, inner, outer *Edges, cands [][]int32, min int64, c Collector) {
	s.Launch("enclosure-eval", inner.NumPolys(), func(tid int) int64 {
		via := PolyFromPacked(inner, tid)
		metals := make([]geom.Polygon, len(cands[tid]))
		var ops int64 = int64(via.NumEdges())
		for i, mi := range cands[tid] {
			metals[i] = PolyFromPacked(outer, int(mi))
			ops += int64(via.NumEdges() * metals[i].NumEdges())
		}
		checks.EvaluateEnclosure(via, metals, min, func(m checks.Marker) {
			c(Hit{Marker: m, A: int32(tid), B: -1})
		})
		return ops
	})
}
