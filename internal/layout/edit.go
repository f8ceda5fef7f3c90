package layout

import (
	"fmt"
	"sort"

	"opendrc/internal/geom"
)

// In-place layout editing. Incremental flows (the odrcd edit endpoint, the
// delta benchmark) mutate a resident layout between checks instead of
// reloading it: rectangles are inserted into — and regions deleted from —
// the top cell, which is where ECO-style changes land in practice (routing
// fixes, fill insertion, spare-cell hookup). Child cell definitions are
// immutable; an edit that must touch library geometry is a new library.
//
// ApplyEdits keeps every derived index consistent (per-layer MBRs, local
// poly indices, subtree counts, the layer-wise duplicated hierarchy, the
// inverted index, and the top cell's spatial index slots) and reports, per
// layer, the dirty rectangles — the exact regions where geometry appeared or
// disappeared — which the session layer dilates by the deck's guard distance
// to plan incremental re-checks.

// orphanLayer marks a deleted polygon slot. Slots are never compacted:
// PlacedPoly.Src.Idx values held by downstream consumers (label lookup in
// the KLayout export) index Cell.Polys positionally, so deletion leaves a
// hole that no per-layer index references instead of shifting its neighbors.
const orphanLayer Layer = -32768

// EditOp selects an edit operation.
type EditOp uint8

// Edit operations.
const (
	// OpInsertRect inserts one rectangle polygon into the top cell.
	OpInsertRect EditOp = iota
	// OpDeleteRegion deletes every top-cell polygon on the layer whose MBR
	// overlaps the rectangle (touching counts, matching geom.Rect.Overlaps).
	// Geometry inside child instances is untouched.
	OpDeleteRegion
)

// String implements fmt.Stringer.
func (op EditOp) String() string {
	if op == OpDeleteRegion {
		return "delete_region"
	}
	return "insert_rect"
}

// Edit is one layout mutation.
type Edit struct {
	Op    EditOp
	Layer Layer
	Rect  geom.Rect
}

// LayerDirty reports the effect of one ApplyEdits call on one layer: how
// many polygons appeared and disappeared, and the dirty rectangles covering
// every changed polygon's MBR (one rect per edit that changed something).
// Deletes contribute the union of the deleted polygons' MBRs — a polygon
// overhanging the delete window is removed whole, so its whole box is dirty.
// An edit that changes nothing (a delete matching no polygon) contributes no
// rect, letting callers skip invalidation entirely.
type LayerDirty struct {
	Layer    Layer
	Rects    []geom.Rect
	Inserted int
	Deleted  int
}

// Union returns the bounding box of the layer's dirty rects (empty when the
// edits changed nothing on the layer).
func (d *LayerDirty) Union() geom.Rect {
	u := geom.EmptyRect()
	for _, r := range d.Rects {
		u = u.Union(r)
	}
	return u
}

// ApplyEdits applies the edits to the top cell in order and refreshes every
// derived index the edits touched. It returns the per-layer dirty summary
// sorted by layer. On error the layout is unchanged (edits are validated
// before any is applied). The caller must exclude every concurrent query for
// the duration of the call.
func (lo *Layout) ApplyEdits(edits []Edit) ([]LayerDirty, error) {
	if len(edits) == 0 {
		return nil, nil
	}
	for i, ed := range edits {
		if ed.Op != OpInsertRect && ed.Op != OpDeleteRegion {
			return nil, fmt.Errorf("layout: edit %d: unknown op %d", i, ed.Op)
		}
		if ed.Layer == orphanLayer {
			return nil, fmt.Errorf("layout: edit %d: reserved layer %d", i, int(ed.Layer))
		}
		if ed.Rect.Empty() || (ed.Op == OpInsertRect && (ed.Rect.Width() <= 0 || ed.Rect.Height() <= 0)) {
			return nil, fmt.Errorf("layout: edit %d: degenerate rect %v", i, ed.Rect)
		}
	}

	top := lo.Top
	acc := make(map[Layer]*LayerDirty)
	touch := func(l Layer) *LayerDirty {
		d := acc[l]
		if d == nil {
			d = &LayerDirty{Layer: l}
			acc[l] = d
		}
		return d
	}
	for _, ed := range edits {
		d := touch(ed.Layer)
		switch ed.Op {
		case OpInsertRect:
			idx := len(top.Polys)
			top.Polys = append(top.Polys, Poly{Layer: ed.Layer, Shape: geom.RectPolygon(ed.Rect)})
			// Appended indices are the largest so far, so the per-layer index
			// stays in ascending poly order — the order buildIndices produced.
			top.polysByLayer[ed.Layer] = append(top.polysByLayer[ed.Layer], int32(idx))
			d.Inserted++
			d.Rects = append(d.Rects, ed.Rect)
		case OpDeleteRegion:
			gone := geom.EmptyRect()
			kept := top.polysByLayer[ed.Layer][:0]
			for _, pi := range top.polysByLayer[ed.Layer] {
				p := &top.Polys[pi]
				if p.Shape.MBR().Overlaps(ed.Rect) {
					gone = gone.Union(p.Shape.MBR())
					p.Layer = orphanLayer
					p.Shape = geom.Polygon{}
					d.Deleted++
					continue
				}
				kept = append(kept, pi)
			}
			top.polysByLayer[ed.Layer] = kept
			if !gone.Empty() {
				d.Rects = append(d.Rects, gone)
			}
		}
	}

	layers := make([]Layer, 0, len(acc))
	for l := range acc {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i] < layers[j] })
	out := make([]LayerDirty, 0, len(layers))
	for _, l := range layers {
		lo.refreshTopLayer(l)
		out = append(out, *acc[l])
	}
	lo.refreshTopMBR()
	return out, nil
}

// refreshTopLayer recomputes the top cell's derived per-layer state and the
// layout-level indices for one edited layer, mirroring what computeMBRs and
// buildIndices produced at load time. Children are untouched by edits, so
// their bottom-up aggregates are still valid inputs here.
func (lo *Layout) refreshTopLayer(l Layer) {
	top := lo.Top
	idx := top.polysByLayer[l]
	mbr := geom.EmptyRect()
	edges := 0
	for _, pi := range idx {
		mbr = mbr.Union(top.Polys[pi].Shape.MBR())
		edges += top.Polys[pi].Shape.NumEdges()
	}
	count, items := len(idx), len(idx)
	for ri := range top.Refs {
		ref := &top.Refs[ri]
		childR := ref.Child.LayerMBR(l)
		if childR.Empty() {
			continue
		}
		for _, cr := range refCorners(ref) {
			mbr = mbr.Union(ref.Placement(cr[0], cr[1]).ApplyRect(childR))
		}
		count += ref.NumPlacements() * ref.Child.subtreeCount[l]
		items += ref.NumPlacements()
	}
	// A built tree stays valid across edits: refs never change, deleted
	// slots are filtered on visit and inserted polygons are scanned as a
	// tail, so it is dropped only once that tail outgrows its bound.
	if top.index[l].outgrown(idx) {
		delete(top.index, l)
	}
	top.setIndexed(l, items)
	if len(idx) == 0 {
		delete(top.polysByLayer, l)
	}
	setOrDelete := func(m map[Layer]int, v int) {
		if v == 0 {
			delete(m, l)
		} else {
			m[l] = v
		}
	}
	setOrDelete(top.localEdgeCount, edges)
	setOrDelete(top.subtreeCount, count)
	if mbr.Empty() {
		delete(top.layerMBR, l)
	} else {
		top.layerMBR[l] = mbr
	}

	// Rebuild the layer's duplicated-hierarchy membership and inverted index
	// from scratch in cell order — the same order buildIndices used, so an
	// edited layout is indistinguishable from one loaded in this state.
	var cells []int
	var inv []PolyRef
	for _, c := range lo.Cells {
		if !c.LayerMBR(l).Empty() {
			cells = append(cells, c.ID)
		}
		for _, pi := range c.polysByLayer[l] {
			inv = append(inv, PolyRef{Cell: c, Idx: int(pi)})
		}
	}
	if len(cells) == 0 {
		delete(lo.layerCells, l)
	} else {
		lo.layerCells[l] = cells
	}
	if len(inv) == 0 {
		delete(lo.inverted, l)
	} else {
		lo.inverted[l] = inv
	}
}

// refreshTopMBR recomputes the top cell's all-layer bounding box (deletions
// can shrink it; insertions can grow it).
func (lo *Layout) refreshTopMBR() {
	top := lo.Top
	m := geom.EmptyRect()
	for i := range top.Polys {
		if top.Polys[i].Layer == orphanLayer {
			continue
		}
		m = m.Union(top.Polys[i].Shape.MBR())
	}
	for ri := range top.Refs {
		ref := &top.Refs[ri]
		if ref.Child.mbr.Empty() {
			continue
		}
		for _, cr := range refCorners(ref) {
			m = m.Union(ref.Placement(cr[0], cr[1]).ApplyRect(ref.Child.mbr))
		}
	}
	top.mbr = m
}

// refCorners returns the four corner instances of an array reference (all
// four collapse to (0,0) for single placements); array offsets are linear in
// (col, row), so corner boxes bound the whole array.
func refCorners(ref *Ref) [4][2]int {
	return [4][2]int{
		{0, 0}, {ref.Cols - 1, 0}, {0, ref.Rows - 1}, {ref.Cols - 1, ref.Rows - 1},
	}
}
