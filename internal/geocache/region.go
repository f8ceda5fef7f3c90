// Region-scoped invalidation. Whole-layer Invalidate throws away everything
// a resident session knows about a layer when one corner of it changed; the
// region path instead patches the layer's record by row. Rows of the adaptive
// partition separated by more than the guard distance cannot interact, so a
// dirty rectangle (dilated by that guard) condemns only the rows it touches:
// their polygons are spliced out of every structure of the record, the
// hierarchy is re-queried over the dirty bands alone, and the answer is
// spliced in at the tail.
//
// The invariant, which is also the test oracle: after a patch the record
// equals, slice for slice, what the cold derivations (ring MBRs,
// partition.Rows, kernels.NewMBRTable) produce from the patched packed
// rings, the instance records (when Flatten built them) hold those rings in
// the same order, and the rings are multiset-equal to a cold FlattenLayer of
// the edited layout — kept rows hold unedited geometry by construction,
// deleted polygons always fall in dirty rows (callers pass dirty rects
// covering every changed polygon's MBR), and new polygons never land inside
// a clean row's band (their extent would have marked it dirty). So every
// reader sees one representation with no liveness state; only the polygon
// order differs from a cold flatten, and canonical reports are unaffected
// because violation serialization is order-free.
package geocache

import (
	"cmp"
	"slices"
	"sort"

	"opendrc/internal/budget"
	"opendrc/internal/geom"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
)

// queryHalfSpan bounds the x-extent of dirty-band query windows (full chip
// width without risking int64 overflow in window arithmetic).
const queryHalfSpan = int64(1) << 60

// RegionOutcome reports what one InvalidateRegion call did, so sessions can
// free only the stale slice of a device-resident edge buffer.
type RegionOutcome struct {
	// Segmented is false when the call degenerated to a whole-layer drop:
	// no completed flatten to patch, every row dirty (an empty or single-row
	// layer included), or a cache running with budgets or a fault hook.
	Segmented            bool
	RowsTotal, RowsDirty int
	// PolysKept polygons stayed where the clean rows had them;
	// PolysRequeried came back from the hierarchy and sit at the tail.
	PolysKept, PolysRequeried int
	// KeptEdgeBytes is the exact device-byte size of the untouched rows'
	// packed edges, which the patch left as the buffer's prefix (zero when
	// not segmented or the layer was never packed). Sessions free
	// (resident bytes - KeptEdgeBytes) and later upload only the tail.
	KeptEdgeBytes int64
}

// InvalidateRegion patches the layer's record where the dirty rects (already
// dilated by the caller's guard distance) intersect its row segmentation.
// The segmentation is the (guard, alg) partition — sessions pass the deck's
// maximum interaction reach, so a clean row's geometry cannot interact with
// anything inside the dirty region; it is computed on the first call and
// kept patched like every other cached partition afterwards. With no
// completed flatten, when every row is dirty, or on a cache with budgets or
// a fault hook (whose flatten-polys check and fault site a patch would
// bypass) the call degrades to Invalidate(l). Empty rects contribute
// nothing; zero rects degrade to a whole-layer drop (matching Invalidate's
// "no qualifier means everything" convention).
//
// The patch rewrites slices earlier lookups returned: callers hold the lock
// that serializes their checks and have none in flight.
func (c *Cache) InvalidateRegion(l layout.Layer, guard int64, alg partition.Algorithm, rects []geom.Rect) RegionOutcome {
	spans := make([]partition.Band, 0, len(rects))
	for _, r := range rects {
		if !r.Empty() {
			spans = append(spans, partition.Band{Lo: r.YLo, Hi: r.YHi})
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.layers[l]
	if len(spans) > 0 && rec != nil && rec.flat.ready() && c.hook == nil && c.limits == (budget.Limits{}) {
		if out, ok := c.patch(rec, l, partKey{guard, alg}, mergeSpans(spans)); ok {
			c.stats.SegmentedInvalidations++
			c.stats.SegmentedRebuilds++
			c.stats.RowsReused += int64(out.RowsTotal - out.RowsDirty)
			c.stats.RowsRequeried += int64(out.RowsDirty)
			c.stats.PatchedPolys += int64(out.PolysRequeried)
			return out
		}
	}
	c.stats.FullInvalidations++
	delete(c.layers, l)
	return RegionOutcome{}
}

// patch splices the rows of the seg partition that the (merged) dirty spans
// touch out of every structure of rec and the re-queried bands in (c.mu
// held). It reports false, leaving rec for the caller to drop, when no row
// would survive.
func (c *Cache) patch(rec *layerRec, l layout.Layer, seg partKey, spans []partition.Band) (RegionOutcome, bool) {
	f := &rec.flat.val
	n := f.edges.NumPolys()
	sp := rec.part(seg)
	if !(*sp).ready() {
		*sp = filled(partition.Rows(f.boxes, seg.guard, seg.alg))
	}
	rows := (*sp).val

	// remap[i] is polygon i's index after the splice, -1 for members of dirty
	// rows; nothing below first moves.
	if cap(c.remap) < n {
		c.remap = make([]int32, n+n/8)
	}
	remap := c.remap[:n]
	clear(remap)
	out := RegionOutcome{Segmented: true, RowsTotal: len(rows)}
	first := n
	var dirty, clean []partition.Band
	for _, row := range rows {
		band := partition.Band{Lo: row.YLo, Hi: row.YHi}
		if !overlapsSpan(spans, band) {
			clean = append(clean, band)
			out.PolysKept += len(row.Members)
			continue
		}
		out.RowsDirty++
		dirty = append(dirty, band)
		for _, m := range row.Members {
			remap[m] = -1
		}
		first = min(first, row.Members[0])
	}
	if out.RowsDirty == out.RowsTotal {
		return RegionOutcome{}, false
	}
	tail := 0
	for i, r := range remap {
		if r >= 0 {
			remap[i] = int32(tail)
			tail++
		}
	}

	// Edit rects can fall in inter-row gaps where no row exists, so the spans
	// are re-queried alongside the dirty rows' bands.
	bands := mergeSpans(append(dirty, spans...))
	fresh, freshBoxes := c.requery(l, bands, clean)
	out.PolysRequeried = len(fresh)
	segRows := partition.Rows(freshBoxes, seg.guard, seg.alg)
	carveRows(fresh, segRows)

	if f.polys != nil {
		f.polys = append(kernels.Compact(f.polys, remap, first), fresh...)
	}
	f.boxes = append(kernels.Compact(f.boxes, remap, first), freshBoxes...)
	rec.boxes = filled(f.boxes)
	// The flatten's buffer is spliced whether or not Pack has handed it out.
	// A buffer that records share (kernels.Share) gets its own array at the
	// first splice, so the kept records' shapes keep their vertices.
	shapes := make([]geom.Polygon, len(fresh))
	for i := range fresh {
		shapes[i] = fresh[i].Shape
	}
	kept := f.edges.Splice(remap, first, shapes)
	if rec.edges.ready() {
		out.KeptEdgeBytes = kept
	} else {
		rec.edges = nil
	}
	if rec.table.ready() {
		rec.table.val.Splice(remap, f.boxes)
	} else {
		rec.table = nil
	}
	// A partition with a guard up to the segmentation's refines it, so its
	// rows inside the bands are whole rows and splice the same way; a coarser
	// one may straddle a band edge and is recomputed on next use.
	parts := rec.parts[:0]
	for _, p := range rec.parts {
		if !p.rows.ready() || p.key.guard > seg.guard {
			continue
		}
		add := segRows
		if p.key != seg {
			add = partition.Rows(freshBoxes, p.key.guard, p.key.alg)
		}
		p.rows.val = partition.Splice(p.rows.val, bands, remap, first, ownRows(add, tail))
		parts = append(parts, p)
	}
	clear(rec.parts[len(parts):])
	rec.parts = parts
	return out, true
}

// requery returns the post-edit polygons of the dirty bands from full-width
// hierarchy range queries, with their boxes. Together with the clean rows'
// polygons every post-edit polygon appears exactly once: clean-row members
// are rejected (a polygon's extent is contained in its own row's band, and
// bands are disjoint with positive-measure extents), dirty-row and new
// polygons are accepted by the first band their extent overlaps. The
// polygons come without shapes (QueryLayerPlaces): carveRows stores them.
func (c *Cache) requery(l layout.Layer, bands, clean []partition.Band) ([]layout.PlacedPoly, []geom.Rect) {
	var out []layout.PlacedPoly
	var boxes []geom.Rect
	prevHi := int64(0)
	for qi, sp := range bands {
		window := geom.Rect{XLo: -queryHalfSpan, YLo: sp.Lo, XHi: queryHalfSpan, YHi: sp.Hi}
		for _, pp := range c.lo.QueryLayerPlaces(l, window) {
			m := pp.Trans.ApplyRect(source(pp).MBR())
			if qi > 0 && m.YLo <= prevHi {
				continue // already returned by an earlier (lower) band
			}
			if containedInSpan(clean, m.YLo, m.YHi) {
				continue // clean-row polygon, kept in place
			}
			out = append(out, pp)
			boxes = append(boxes, m)
		}
		prevHi = sp.Hi
	}
	return out, boxes
}

// source returns the cell-frame shape a placed polygon is placed from.
func source(pp layout.PlacedPoly) geom.Polygon { return pp.Src.Cell.Polys[pp.Src.Idx].Shape }

// carveRows stores each row's shapes, placed, into one array of their own,
// sized exactly. Splice copies them into the packed buffer; where the layer
// keeps instance records, the records keep them, and a later patch drops
// rows of the segmentation whole, so a row's vertices are freed with it —
// one array for a whole patch would stay alive behind any of its rows left
// standing, a little more with every patch.
func carveRows(fresh []layout.PlacedPoly, rows []partition.Row) {
	for _, row := range rows {
		n := 0
		for _, m := range row.Members {
			n += source(fresh[m]).NumEdges()
		}
		slab := geom.NewSlab(n)
		for _, m := range row.Members {
			fresh[m].Shape = slab.Transform(source(fresh[m]), fresh[m].Trans)
		}
	}
}

// ownRows returns the fresh rows, numbered from tail, each with a members
// array of its own, sized exactly — for the reason carveRows gives its
// shapes one: partition.Rows carves every row's members from one array.
func ownRows(rows []partition.Row, tail int) []partition.Row {
	out := make([]partition.Row, len(rows))
	for i, row := range rows {
		out[i] = row
		out[i].Members = make([]int, len(row.Members))
		for j, m := range row.Members {
			out[i].Members[j] = m + tail
		}
	}
	return out
}

// mergeSpans sorts and merges inclusive intervals (touching merges).
func mergeSpans(spans []partition.Band) []partition.Band {
	if len(spans) < 2 {
		return spans
	}
	slices.SortFunc(spans, func(a, b partition.Band) int {
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(a.Hi, b.Hi)
	})
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp.Lo <= last.Hi {
			last.Hi = max(last.Hi, sp.Hi)
			continue
		}
		out = append(out, sp)
	}
	return out
}

// overlapsSpan reports whether b intersects one of the sorted disjoint spans.
func overlapsSpan(spans []partition.Band, b partition.Band) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Hi >= b.Lo })
	return i < len(spans) && spans[i].Lo <= b.Hi
}

// containedInSpan reports whether [lo, hi] is contained in one of the sorted
// disjoint spans.
func containedInSpan(spans []partition.Band, lo, hi int64) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Hi >= lo })
	return i < len(spans) && spans[i].Lo <= lo && hi <= spans[i].Hi
}
