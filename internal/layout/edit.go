package layout

import (
	"cmp"
	"fmt"
	"slices"

	"opendrc/internal/geom"
)

// In-place layout editing. Incremental flows (the odrcd edit endpoint, the
// delta benchmark) mutate a resident layout between checks instead of
// reloading it: rectangles are inserted into — and regions deleted from —
// the top cell, which is where ECO-style changes land in practice (routing
// fixes, fill insertion, spare-cell hookup). Child cell definitions are
// immutable; an edit that must touch library geometry is a new library.
//
// ApplyEdits keeps every derived index consistent (the top cell's layer
// table — MBRs, local poly indices, subtree counts, spatial index slots —
// the layer-wise duplicated hierarchy and the inverted index) and reports, per
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
	var out []LayerDirty // sorted by layer
	dirty := func(l Layer) *LayerDirty {
		i, ok := slices.BinarySearchFunc(out, l, func(d LayerDirty, l Layer) int { return cmp.Compare(d.Layer, l) })
		if !ok {
			out = slices.Insert(out, i, LayerDirty{Layer: l})
		}
		return &out[i]
	}
	for _, ed := range edits {
		d := dirty(ed.Layer)
		s := top.touch(ed.Layer) // a slot left empty is removed below
		switch ed.Op {
		case OpInsertRect:
			// Appended indices are the largest so far, so the per-layer index
			// stays in ascending poly order — the order the build produced.
			s.polys = append(s.polys, int32(len(top.Polys)))
			top.Polys = append(top.Polys, Poly{Layer: ed.Layer, Shape: geom.RectPolygon(ed.Rect)})
			d.Inserted++
			d.Rects = append(d.Rects, ed.Rect)
		case OpDeleteRegion:
			gone := geom.EmptyRect()
			kept := s.polys[:0]
			for _, pi := range s.polys {
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
			s.polys = kept
			if !gone.Empty() {
				d.Rects = append(d.Rects, gone)
			}
		}
	}

	top.mbr = geom.EmptyRect() // deletions can shrink it; insertions can grow it
	for _, d := range out {
		// Children are untouched by edits, so the slot's aggregate of them is
		// still valid. A layer left without geometry loses its slot, as if
		// never loaded.
		i, _ := top.slotIndex(d.Layer)
		if top.refresh(&top.layers[i]); top.layers[i].mbr.Empty() {
			top.layers = slices.Delete(top.layers, i, i+1)
		}
		lo.reindexLayer(d.Layer)
	}
	for i := range top.layers {
		top.mbr = top.mbr.Union(top.layers[i].mbr)
	}
	return out, nil
}
