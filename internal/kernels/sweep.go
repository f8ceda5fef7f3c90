package kernels

import (
	"fmt"
	"slices"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/radix"
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
//
// Two things keep the simulation's cost near the candidates that can hit
// rather than the windows the device threads scan. The views are sorted by a
// stable LSD radix sort of their gather positions; edges are gathered in
// ascending packed index, so that is exactly the (key, index) order. And
// sweep-check finds each thread's candidates in a bucketed index of the view
// by parallel span (candIndex) instead of walking its window; the survivors
// are merged into ascending position, so the predicate sees them in window
// order. Standard cells share y across a row, so a horizontal window covers
// the whole row width while only a handful of its edges overlap the thread's
// edge in x.

// Scratch is the host working set of one sweep simulation: the current
// pass's sorted order, its gathered columns and its candidate index. It holds
// no results — every pass overwrites it — so a warm Scratch may be reused for
// any row of any buffer and a steady-state row simulation allocates nothing
// per edge. Not safe for concurrent use; concurrent rows take one each.
type Scratch struct {
	order  []int32 // edge index at each view position, in (key, edge index) order
	poly   []int32 // the polygon of the edge at each view position
	perm   []int32 // the gather position at each view position
	spare  []int32 // the radix sort's ping-pong buffer
	key    []int64 // sort key at each view position: perpendicular coordinate | corner x
	lo, hi []int64 // parallel span of the edge at each view position (corner pass: lo is the corner's y)
	fwd    []bool  // direction bit: P1 lies beyond P0 along the edge's axis
	ranges []int32 // scan kernel output: each position's check-range end
	idx    candIndex
	cand   []int32 // one sweep-check thread's prescreen survivors

	window, visited int64 // sweep-check candidates of the last SweepPolys: charged, and prescreened on the host
}

// Candidates reports, for the last SweepPolys call, the sweep-check
// candidates its device threads scan — the ops they are charged — and the
// ones the host simulation took from the candidate index and prescreened to
// find the same hits.
func (sc *Scratch) Candidates() (window, visited int64) { return sc.window, sc.visited }

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// permute returns dst, grown to len(perm), holding src[perm[t]] at each t.
func permute[T any](dst, src []T, perm []int32) []T {
	dst = grow(dst, len(perm))
	for t, q := range perm {
		dst[t] = src[q]
	}
	return dst
}

// gather empties the view's order, polygon and key columns, to be appended
// to for at most n edges.
func (sc *Scratch) gather(n int) {
	sc.order, sc.poly, sc.key = grow(sc.order, n)[:0], grow(sc.poly, n)[:0], grow(sc.key, n)[:0]
}

// sortView sorts the gathered view — edges appended in ascending index, with
// their polygons and keys — into (key, edge index) order, and sizes the other
// columns to it. The radix sort orders the gather positions, which arrive
// ascending, so ties keep edge index order; the three columns then follow
// the sorted positions.
func (sc *Scratch) sortView() {
	n := len(sc.order)
	perm := grow(sc.perm, n)
	for t := range perm {
		perm[t] = int32(t)
	}
	sc.perm, sc.spare = radix.Sort(perm, sc.spare, sc.key)
	sc.order, sc.spare = permute(sc.spare, sc.order, sc.perm), sc.order
	sc.poly, sc.spare = permute(sc.spare, sc.poly, sc.perm), sc.poly
	sc.key, sc.lo = permute(sc.lo, sc.key, sc.perm), sc.key
	sc.lo, sc.hi = grow(sc.lo, n), grow(sc.hi, n)
	sc.fwd, sc.ranges = grow(sc.fwd, n), grow(sc.ranges, n)
}

// axes returns p's coordinates across and along the edges of one axis
// view: (y, x) for horizontal edges, (x, y) for vertical ones.
func axes(p geom.Point, vertical bool) (perp, para int64) {
	if vertical {
		return p.X, p.Y
	}
	return p.Y, p.X
}

// loadAxis loads the view of the members' edges that run along one axis
// (vertical, or horizontal): those whose perpendicular coordinate is the
// same at both ends and whose parallel coordinate differs, sorted by
// perpendicular coordinate. total is the members' edge count, an upper
// bound on the view.
func (sc *Scratch) loadAxis(e *Edges, polys []int32, total int, vertical bool) {
	sc.gather(total)
	for _, p := range polys {
		lo, hi := e.PolyEdges(int(p))
		for i := lo; i < hi; i++ {
			perp, para := axes(e.Pts[i], vertical)
			perpN, paraN := axes(e.Pts[e.succ(int(p), i)], vertical)
			if perp == perpN && para != paraN {
				sc.order = append(sc.order, int32(i))
				sc.poly = append(sc.poly, p)
				sc.key = append(sc.key, perp)
			}
		}
	}
	sc.sortView()
	for t, i := range sc.order {
		_, a := axes(e.Pts[i], vertical)
		_, b := axes(e.Pts[e.succ(int(sc.poly[t]), int(i))], vertical)
		sc.lo[t], sc.hi[t] = min(a, b), max(a, b)
		sc.fwd[t] = b > a
	}
}

// loadCorners loads the corner view: one corner (P1) per member edge, sorted
// by x.
func (sc *Scratch) loadCorners(e *Edges, polys []int32, total int) {
	sc.gather(total)
	for _, p := range polys {
		lo, hi := e.PolyEdges(int(p))
		for i := lo; i < hi; i++ {
			sc.order = append(sc.order, int32(i))
			sc.poly = append(sc.poly, p)
			sc.key = append(sc.key, e.Pts[e.succ(int(p), i)].X)
		}
	}
	sc.sortView()
	for t, i := range sc.order {
		sc.lo[t] = e.Pts[e.succ(int(sc.poly[t]), int(i))].Y
	}
}

// scanRange launches the scan kernel over the loaded view: thread tid finds
// the end of the half-open window (tid+1 .. end) of positions whose key lies
// within dist of its own. The view is sorted, so a window's end never lies
// before the previous thread's; threads run in tid order, which lets each
// resume from its predecessor's end instead of rescanning. The op count
// charged is that of the full scan the device thread performs.
func (sc *Scratch) scanRange(s Launcher, name string, dist int64) {
	key, ranges := sc.key, sc.ranges
	n := len(key)
	s.Launch(name, n, func(tid int) int64 {
		end := tid + 1
		if tid > 0 && int(ranges[tid-1]) > end {
			end = int(ranges[tid-1])
		}
		limit := key[tid] + dist
		for end < n && key[end] <= limit {
			end++
		}
		ranges[tid] = int32(end)
		return int64(end-tid) + 1
	})
}

// candIndex indexes an axis view by parallel span, so that a sweep-check
// thread can find the positions whose span can overlap its own without
// walking its window. An edge whose span is at most w (short) sits in the
// bucket of its lo, (lo − base) / w; longer edges (rails) sit in the last
// bucket, long. Bucket b holds pos[start[b]:start[b+1]], ascending. A short
// edge k with positive overlap has lo[k] < hi and hi[k] > lo, so
// lo[k] > lo − w: its bucket lies between those of lo − w + 1 and hi − 1.
//
// next[b] is bucket b's cursor: the first of its entries not at or before
// the last thread that visited it. Threads visit in tid order, so a cursor
// only advances and each entry is passed over once in the whole launch.
type candIndex struct {
	base  int64
	w     uint64
	long  int
	start []int32
	pos   []int32
	next  []int32
}

// build indexes the view with spans lo[t]..hi[t]. The bucket width is twice
// the mean span, doubled until there are no more buckets than edges; any
// width is sound, this one keeps both the bucket count and the entries per
// bucket small.
func (ix *candIndex) build(lo, hi []int64) {
	n := len(lo)
	base, top := lo[0], lo[0]
	var sum uint64
	for t := range lo {
		base, top = min(base, lo[t]), max(top, lo[t])
		sum += uint64(hi[t] - lo[t])
	}
	w, extent := max(2*(sum/uint64(n)), 1), uint64(top-base)
	for extent/w >= uint64(n) {
		w *= 2
	}
	ix.base, ix.w, ix.long = base, w, int(extent/w)+1
	bucket := func(t int) int {
		if uint64(hi[t]-lo[t]) > w {
			return ix.long
		}
		return int(uint64(lo[t]-base) / w)
	}
	start := grow(ix.start, ix.long+2)
	clear(start)
	for t := range lo {
		start[bucket(t)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	pos := grow(ix.pos, n)
	for t := range lo {
		b := bucket(t)
		pos[start[b]] = int32(t)
		start[b]++
	}
	copy(start[1:], start) // the fill advanced each bucket's start to its end
	start[0] = 0
	ix.start, ix.pos = start, pos
	ix.next = append(ix.next[:0], start[:ix.long+1]...)
}

// buckets returns the bucket range [b0, b1] that holds every short edge
// whose span can overlap lo..hi (hi > lo).
func (ix *candIndex) buckets(lo, hi int64) (b0, b1 int) {
	if d := uint64(lo - ix.base); d >= ix.w-1 {
		b0 = int((d - (ix.w - 1)) / ix.w)
	}
	return b0, min(int(uint64(hi-1-ix.base)/ix.w), ix.long-1)
}

// after advances bucket b's cursor past the positions at or before tid and
// returns the entries from there on.
func (ix *candIndex) after(b, tid int) []int32 {
	k, stop := ix.next[b], ix.start[b+1]
	for k < stop && int(ix.pos[k]) <= tid {
		k++
	}
	ix.next[b] = k
	return ix.pos[k:stop]
}

// sweepAxis runs the scan and check kernels over the loaded axis view. The
// scan window spans the limit's reach so conditional (PRL) thresholds are
// fully covered. A candidate reaches the predicate only if it passes the
// filter's same/different-polygon test, runs anti-parallel to the thread's
// edge, and shares positive projection with it — the first two exits of
// both EdgePairSpacingLim and EdgePairWidth.
//
// A thread takes its prescreen survivors from the candidate index: it
// enters each bucket of its range, then the long bucket, at the bucket's
// cursor (past position tid) and leaves it at the window's end; the
// survivors are sorted into ascending position, and the predicate runs over
// them in that order — the order a walk of the window meets them in. The
// thread is charged its whole window.
func (sc *Scratch) sweepAxis(s Launcher, e *Edges, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	n := len(sc.order)
	if n == 0 {
		return
	}
	sc.scanRange(s, "scan-range", lim.Reach()-1)
	sc.idx.build(sc.lo, sc.hi)

	order, lo, hi, fwd, poly, ranges := sc.order, sc.lo, sc.hi, sc.fwd, sc.poly, sc.ranges
	ix := &sc.idx
	samePoly := filter != FilterSpacing
	s.Launch("sweep-check", n, func(tid int) int64 {
		end := int(ranges[tid])
		window := end - tid - 1
		sc.window += int64(window)
		loT, hiT, fwdT, polyT := lo[tid], hi[tid], fwd[tid], poly[tid]
		cand := sc.cand[:0]
		visit := func(b int) {
			for _, k := range ix.after(b, tid) {
				if int(k) >= end {
					return
				}
				sc.visited++
				if min(hi[k], hiT) > max(lo[k], loT) && fwd[k] != fwdT && (poly[k] == polyT) == samePoly {
					cand = append(cand, k)
				}
			}
		}
		b0, b1 := ix.buckets(loT, hiT)
		for b := b0; b <= b1; b++ {
			visit(b)
		}
		visit(ix.long)
		slices.Sort(cand)
		if len(cand) > 0 {
			ei := e.Edge(int(polyT), int(order[tid]))
			for _, k := range cand {
				ej := e.Edge(int(poly[k]), int(order[k]))
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
					c(Hit{Marker: m, A: polyT, B: b})
				}
			}
		}
		sc.cand = cand
		return int64(window) // one op per candidate, screened or not
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
		i, pi := int(order[tid]), int(poly[tid])
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
				ei, eo = e.Edge(pi, i), e.NextEdge(pi, i)
				loaded = true
			}
			j, pj := int(order[k]), int(poly[k])
			if m, ok := checks.CornerSpacing(ei, eo, e.Edge(pj, j), e.NextEdge(pj, j), min); ok {
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
//
// polys must be strictly ascending — partition rows and SpacingSweep's
// identity list are — because the views are sorted stably from edges
// gathered in member order; any other order panics rather than reorder hits.
func (sc *Scratch) SweepPolys(s Launcher, e *Edges, polys []int32, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	total, prev := 0, int32(-1)
	for _, p := range polys {
		if p <= prev {
			panic(fmt.Sprintf("kernels: sweep members not strictly ascending: polygon %d follows %d", p, prev))
		}
		prev = p
		lo, hi := e.PolyEdges(int(p))
		total += hi - lo
	}
	sc.window, sc.visited = 0, 0
	if total > 0 {
		logn := int64(1)
		for 1<<logn < total {
			logn++
		}
		s.Launch("sort-edges", total, func(int) int64 { return logn * logn })
	}
	sc.loadAxis(e, polys, total, false) // horizontal edges, swept in y
	sc.sweepAxis(s, e, lim, filter, c)
	sc.loadAxis(e, polys, total, true) // vertical edges, swept in x
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
