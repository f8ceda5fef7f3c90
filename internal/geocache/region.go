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
// rings, and the rings are multiset-equal to a cold FlattenLayer of
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

// RegionOutcome reports what one InvalidateRegion call did.
type RegionOutcome struct {
	// Segmented is false when the call degenerated to a whole-layer drop:
	// no completed flatten to patch, a flatten holding instance records,
	// every row dirty (an empty or single-row layer included), or a cache
	// running with budgets or a fault hook.
	Segmented            bool
	RowsTotal, RowsDirty int
	// PolysKept polygons stayed where the clean rows had them;
	// PolysRequeried came back from the hierarchy and sit at the tail.
	PolysKept, PolysRequeried int
}

// InvalidateRegion patches the layer's record where the dirty rects (already
// dilated by the caller's guard distance) intersect its row segmentation.
// The segmentation is the (guard, alg) partition — sessions pass the largest
// reach among the rules that read the layer through the cache, so every
// partition those rules read refines it; it is computed on the first call
// and kept patched like every other cached partition afterwards. With no
// completed flatten, when the flatten holds instance records (Flatten's,
// whose shapes share the packed buffer's vertices), when every row is dirty,
// or on a cache with budgets or a fault hook (whose flatten-polys check and
// fault site a patch would bypass) the call degrades to Invalidate(l). Empty
// rects contribute nothing; zero rects degrade to a whole-layer drop
// (matching Invalidate's "no qualifier means everything" convention).
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
	if len(spans) > 0 && rec != nil && rec.flat.ready() && rec.flat.val.polys == nil &&
		c.hook == nil && c.limits == (budget.Limits{}) {
		if out, ok := c.patch(rec, l, partKey{guard, alg}, mergeSpans(spans)); ok {
			c.stats.SegmentedInvalidations++
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

	f.boxes = append(kernels.Compact(f.boxes, remap, first), freshBoxes...)
	rec.boxes = filled(f.boxes)
	// The flatten's buffer is spliced whether or not Pack has handed it out.
	f.edges.Splice(remap, first, fresh)
	if !rec.edges.ready() {
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
		add := partition.Rows(freshBoxes, p.key.guard, p.key.alg)
		p.rows.val = partition.Splice(p.rows.val, bands, remap, first, ownRows(add, tail))
		parts = append(parts, p)
	}
	clear(rec.parts[len(parts):])
	rec.parts = parts
	return out, true
}

// requery returns the post-edit shapes of the dirty bands from full-width
// hierarchy range queries, placed, with their boxes; Splice copies the
// shapes into the packed buffer's tail. Together with the clean rows'
// polygons every post-edit polygon appears exactly once: clean-row members
// are rejected (a polygon's extent is contained in its own row's band, and
// bands are disjoint with positive-measure extents), dirty-row and new
// polygons are accepted by the first band their extent overlaps.
func (c *Cache) requery(l layout.Layer, bands, clean []partition.Band) ([]geom.Polygon, []geom.Rect) {
	var out []geom.Polygon
	var boxes []geom.Rect
	prevHi := int64(0)
	for qi, sp := range bands {
		window := geom.Rect{XLo: -queryHalfSpan, YLo: sp.Lo, XHi: queryHalfSpan, YHi: sp.Hi}
		found, _ := c.lo.QueryLayer(l, window)
		for _, pp := range found {
			m := pp.Shape.MBR()
			if qi > 0 && m.YLo <= prevHi {
				continue // already returned by an earlier (lower) band
			}
			if containedInSpan(clean, m.YLo, m.YHi) {
				continue // clean-row polygon, kept in place
			}
			out = append(out, pp.Shape)
			boxes = append(boxes, m)
		}
		prevHi = sp.Hi
	}
	return out, boxes
}

// ownRows returns the fresh rows, numbered from tail, each with a members
// array of its own, sized exactly: partition.Rows carves every row's members
// from one array, which would stay alive behind any of its rows a later
// patch leaves standing, a little more with every patch.
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
