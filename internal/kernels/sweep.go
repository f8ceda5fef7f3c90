package kernels

import (
	"cmp"
	"slices"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
)

// The parallel sweepline executor, following X-Check's two-kernel structure:
// per sorted view, a scan kernel determines each edge's check range and a
// check kernel tests each edge against every edge in its range. Three passes
// run over a member polygon list of one packed buffer: horizontal edges
// swept in y, vertical edges swept in x, and (spacing only) corners swept in
// x for diagonal gaps.
//
// The host simulates each pass over columns gathered in view order — sort
// key, parallel span, direction bit, polygon id — so the thread bodies walk
// contiguous memory and reject almost every candidate on a coordinate
// prescreen before any geom.Edge is materialised. The prescreens are
// necessary conditions of the shared predicates (checks.EdgePairSpacingLim,
// EdgePairWidth, CornerSpacing), which stay the sole arbiter of a hit, and a
// rejected candidate still counts its modeled op: hits, hit order and every
// thread's op count are those of the straightforward bodies kept in
// reference_test.go.

// keyIdx is one entry of a sorted order: the sort key and the packed index
// that breaks ties. (key, idx) is a strict total order, so the sorted
// sequence does not depend on the sort algorithm.
type keyIdx struct {
	key int64
	idx int32
}

func sortKeyIdx(v []keyIdx) {
	slices.SortFunc(v, func(a, b keyIdx) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// Scratch is the host working set of one sweep simulation: the current
// pass's sorted order and its gathered columns. It holds no results — every
// pass overwrites it — so a warm Scratch may be reused for any row of any
// buffer and a steady-state row simulation allocates nothing per edge. Not
// safe for concurrent use; concurrent rows take one each.
type Scratch struct {
	order  []keyIdx // (perpendicular coordinate | corner x, edge index), sorted
	lo, hi []int64  // parallel span of the edge at each view position (corner pass: lo is the corner's y)
	fwd    []bool   // direction bit: P1 lies beyond P0 along the edge's axis
	poly   []int32
	ranges []int32 // scan kernel output: each position's check-range end
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sorted sorts the collected order and sizes the columns to it.
func (sc *Scratch) sorted() {
	sortKeyIdx(sc.order)
	n := len(sc.order)
	sc.lo, sc.hi = grow(sc.lo, n), grow(sc.hi, n)
	sc.fwd, sc.poly, sc.ranges = grow(sc.fwd, n), grow(sc.poly, n), grow(sc.ranges, n)
}

// loadAxis loads the view of the members' edges that run along one axis:
// those whose perpendicular coordinate is constant (perp0 == perp1) and
// whose parallel coordinates a -> b differ, sorted by perpendicular
// coordinate. total is the members' edge count, an upper bound on the view.
func (sc *Scratch) loadAxis(e *Edges, polys []int32, total int, perp0, perp1, a, b []int64) {
	sc.order = grow(sc.order, total)[:0]
	for _, p := range polys {
		lo, hi := e.PolyEdges(int(p))
		for i := lo; i < hi; i++ {
			if perp0[i] == perp1[i] && a[i] != b[i] {
				sc.order = append(sc.order, keyIdx{perp0[i], int32(i)})
			}
		}
	}
	sc.sorted()
	for t, o := range sc.order {
		i := o.idx
		sc.lo[t], sc.hi[t] = min(a[i], b[i]), max(a[i], b[i])
		sc.fwd[t] = b[i] > a[i]
		sc.poly[t] = e.Poly[i]
	}
}

// loadCorners loads the corner view: one corner (P1) per member edge, sorted
// by x.
func (sc *Scratch) loadCorners(e *Edges, polys []int32, total int) {
	sc.order = grow(sc.order, total)[:0]
	for _, p := range polys {
		lo, hi := e.PolyEdges(int(p))
		for i := lo; i < hi; i++ {
			sc.order = append(sc.order, keyIdx{e.X1[i], int32(i)})
		}
	}
	sc.sorted()
	for t, o := range sc.order {
		sc.lo[t] = e.Y1[o.idx]
		sc.poly[t] = e.Poly[o.idx]
	}
}

// scanRange launches the scan kernel over the loaded view: thread tid finds
// the end of the half-open window (tid+1 .. end) of positions whose key lies
// within dist of its own. The view is sorted, so a window's end never lies
// before the previous thread's; threads run in tid order, which lets each
// resume from its predecessor's end instead of rescanning. The op count
// charged is that of the full scan the device thread performs.
func (sc *Scratch) scanRange(s Launcher, name string, dist int64) {
	order, ranges := sc.order, sc.ranges
	n := len(order)
	s.Launch(name, n, func(tid int) int64 {
		end := tid + 1
		if tid > 0 && int(ranges[tid-1]) > end {
			end = int(ranges[tid-1])
		}
		limit := order[tid].key + dist
		for end < n && order[end].key <= limit {
			end++
		}
		ranges[tid] = int32(end)
		return int64(end-tid) + 1
	})
}

// sweepAxis runs the scan and check kernels over the loaded axis view. The
// scan window spans the limit's reach so conditional (PRL) thresholds are
// fully covered. A candidate reaches the predicate only if it passes the
// filter's same/different-polygon test, runs anti-parallel to the thread's
// edge, and shares positive projection with it — the first two exits of
// both EdgePairSpacingLim and EdgePairWidth.
func (sc *Scratch) sweepAxis(s Launcher, e *Edges, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	n := len(sc.order)
	if n == 0 {
		return
	}
	sc.scanRange(s, "scan-range", lim.Reach()-1)

	order, lo, hi, fwd, poly, ranges := sc.order, sc.lo, sc.hi, sc.fwd, sc.poly, sc.ranges
	samePoly := filter != FilterSpacing
	s.Launch("sweep-check", n, func(tid int) int64 {
		end := int(ranges[tid])
		ei := e.Edge(int(order[tid].idx))
		for k := tid + 1; k < end; k++ {
			if min(hi[k], hi[tid]) <= max(lo[k], lo[tid]) || fwd[k] == fwd[tid] ||
				(poly[k] == poly[tid]) != samePoly {
				continue
			}
			ej := e.Edge(int(order[k].idx))
			var m checks.Marker
			var ok bool
			if filter == FilterWidth {
				m, ok = checks.EdgePairWidth(ei, ej, lim.Min)
			} else {
				m, ok = checks.EdgePairSpacingLim(ei, ej, lim)
			}
			if ok {
				b := int32(-1)
				if filter == FilterSpacing {
					b = poly[k]
				}
				c(Hit{Marker: m, A: poly[tid], B: b})
			}
		}
		return int64(end - tid - 1) // one op per candidate, screened or not
	})
}

// sweepCorners runs the corner pass over the loaded corner view: each thread
// scans the x-window of width min ahead of its corner and tests the corners
// of other polygons in it. CornerSpacing needs 0 < |dy| < min, so corners
// outside that band are skipped on the gathered y column (the argument
// SpacingBrute's prescreen documents); they still count their op.
func (sc *Scratch) sweepCorners(s Launcher, e *Edges, min int64, c Collector) {
	n := len(sc.order)
	if n == 0 {
		return
	}
	sc.scanRange(s, "corner-scan", min-1)

	order, y, poly, ranges := sc.order, sc.lo, sc.poly, sc.ranges
	s.Launch("corner-check", n, func(tid int) int64 {
		i := int(order[tid].idx)
		var ei, eo geom.Edge
		loaded := false
		var ops int64
		for k := tid + 1; k < int(ranges[tid]); k++ {
			if poly[k] == poly[tid] {
				continue
			}
			ops++
			dy := y[k] - y[tid]
			if dy < 0 {
				dy = -dy
			}
			if dy == 0 || dy >= min {
				continue
			}
			if !loaded {
				ei, eo = e.Edge(i), e.NextEdge(i)
				loaded = true
			}
			j := int(order[k].idx)
			if m, ok := checks.CornerSpacing(ei, eo, e.Edge(j), e.NextEdge(j), min); ok {
				c(Hit{Marker: m, A: poly[tid], B: poly[k]})
			}
		}
		return ops
	})
}

// SweepPolys runs the sweepline executor for spacing (or width/notch via the
// filter) over the member polygons of a packed buffer, reusing sc's storage.
// The sweep orders are sorted on the host and charged to the device as one
// bitonic-sort-equivalent kernel (n threads × log² n ops over the member
// edge count), matching how X-Check prepares its orders on device.
func (sc *Scratch) SweepPolys(s Launcher, e *Edges, polys []int32, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	total := 0
	for _, p := range polys {
		lo, hi := e.PolyEdges(int(p))
		total += hi - lo
	}
	if total > 0 {
		logn := int64(1)
		for 1<<logn < total {
			logn++
		}
		s.Launch("sort-edges", total, func(int) int64 { return logn * logn })
	}
	sc.loadAxis(e, polys, total, e.Y0, e.Y1, e.X0, e.X1) // horizontal edges, swept in y
	sc.sweepAxis(s, e, lim, filter, c)
	sc.loadAxis(e, polys, total, e.X0, e.X1, e.Y0, e.Y1) // vertical edges, swept in x
	sc.sweepAxis(s, e, lim, filter, c)
	if filter == FilterSpacing {
		sc.loadCorners(e, polys, total)
		sc.sweepCorners(s, e, lim.Min, c)
	}
}

// SpacingSweepPolys is Scratch.SweepPolys on fresh storage, for one-off
// sweeps; row loops keep a Scratch warm instead.
func SpacingSweepPolys(s Launcher, e *Edges, polys []int32, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	new(Scratch).SweepPolys(s, e, polys, lim, filter, c)
}

// SpacingSweep runs the sweepline executor over every polygon of the buffer.
func SpacingSweep(s Launcher, e *Edges, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	polys := make([]int32, e.NumPolys())
	for i := range polys {
		polys[i] = int32(i)
	}
	SpacingSweepPolys(s, e, polys, lim, filter, c)
}
