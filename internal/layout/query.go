package layout

import (
	"slices"

	"opendrc/internal/geom"
)

// PlacedPoly is a polygon instance in the global (top-cell) frame.
type PlacedPoly struct {
	Src   PolyRef        // the defining polygon
	Trans geom.Transform // cell frame -> global frame
	Shape geom.Polygon   // transformed shape
}

// QueryStats counts hierarchy-tree work during a range query, exposing the
// pruning that makes a narrow query cost O(min(n, kh)). In a cell walked
// plainly every own polygon and every child placement is examined; in a cell
// answered from its spatial index (see index.go) only the candidates the
// index surfaced are, so a narrow window's counts stay far below the cell's
// item count. A window covering the whole layer takes the plain walk
// everywhere and reports exact totals.
type QueryStats struct {
	NodesVisited int // cell instances whose subtree was descended
	NodesPruned  int // examined refs without the layer, and examined placements whose layer MBR missed the window
	PolysTested  int // examined leaf polygons (their MBR was tested)
	PolysHit     int // leaf polygons reported
}

// QueryLayer returns every polygon on the given layer whose MBR intersects
// the query window, walking the hierarchy from the top cell and pruning
// subtrees whose layer MBR misses the window. Pass geom.EmptyRect().Union
// of everything — or simply a huge rect — to enumerate the whole layer; use
// FlattenLayer for that common case.
func (lo *Layout) QueryLayer(l Layer, window geom.Rect) ([]PlacedPoly, QueryStats) {
	q := lo.newQuery(l, window)
	q.cell(lo.Top, geom.Identity())
	return q.out, q.st
}

// newQuery returns a window query from the top cell, its output pre-sized.
func (lo *Layout) newQuery(l Layer, window geom.Rect) query {
	return query{l: l, window: window,
		out: make([]PlacedPoly, 0, capHint(lo.Top.SubtreePolyCount(l), lo.Top.LayerMBR(l), window))}
}

// capHint estimates how many of the total polygons spread over extent a
// query window will hit, assuming roughly uniform density: the total scaled
// by the fraction of the extent's area the window covers, with slack for
// local clustering. A window covering the whole extent returns the exact
// total, so full-layer queries pre-size perfectly; a miss returns 0. Areas
// multiply in float64 — chip-scale coordinates overflow int64 areas.
func capHint(total int, extent, window geom.Rect) int {
	if total == 0 || extent.Empty() {
		return 0
	}
	inter := extent.Intersect(window)
	if inter.Empty() {
		return 0
	}
	ea := float64(extent.Width()) * float64(extent.Height())
	if ea <= 0 {
		return total // degenerate extent: everything is in the window
	}
	ia := float64(inter.Width()) * float64(inter.Height())
	h := int(float64(total) * (ia / ea))
	h += h/4 + 8 // slack: geometry clusters, and tiny windows still hit a few
	return min(h, total)
}

// query is the state of one range query: the one walk QueryLayer,
// QuerySubtree, FlattenLayer and FillLayer share.
type query struct {
	l      Layer
	window geom.Rect // global frame
	out    []PlacedPoly
	st     QueryStats
	// slab, when set, stores the reported shapes (the full-layer flatten).
	slab *geom.Slab
	// fill, when set, takes each hit's vertex count and box, and its shape
	// goes to slab; a record too only when out is set (FillLayer).
	fill *Fill
	// cand holds index candidates; nested indexed cells use it as a stack.
	cand []uint32
}

// cell reports the subtree of one cell instance placed by t. It consults the
// cell's spatial index when the cell has one and the window does not cover
// the cell's layer extent; a covering window returns everything, so it walks
// plainly, as do small cells (no slot) and magnified frames (the window has
// no exact inverse image on the integer grid).
func (q *query) cell(c *Cell, t geom.Transform) {
	q.st.NodesVisited++
	s := c.slot(q.l)
	if s.index != nil && t.PreservesDistances() && !q.window.ContainsRect(t.ApplyRect(s.mbr)) {
		q.indexed(c, t, s.polys, s.index.get(c, s))
		return
	}
	for _, pi := range s.polys {
		q.poly(c, t, int(pi))
	}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		childR := ref.Child.LayerMBR(q.l)
		if childR.Empty() {
			q.st.NodesPruned++ // whole subtree has nothing on this layer
			continue
		}
		for col := 0; col < ref.Cols; col++ {
			for row := 0; row < ref.Rows; row++ {
				q.placement(ref, col, row, childR, t)
			}
		}
	}
}

// indexed is cell's walk restricted to the candidates the index surfaces,
// visited in the plain walk's order — own polygons (own, ascending), then
// placements by (ref, col, row) — with the same exact test on each.
func (q *query) indexed(c *Cell, t geom.Transform, own []int32, tree *rtree) {
	base := len(q.cand)
	q.cand = tree.search(t.Inverse().ApplyRect(q.window), q.cand)
	end := len(q.cand)
	slices.Sort(q.cand[base:end])
	i := base
	for ; i < end && q.cand[i] < tree.polyEnd; i++ {
		// A slot ApplyEdits deleted since the build is an orphan.
		if pi := int(q.cand[i]); c.Polys[pi].Layer == q.l {
			q.poly(c, t, pi)
		}
	}
	// Polygons ApplyEdits inserted since the build: the ascending tail of
	// the per-layer list, at most indexMaxTail long.
	tail := len(own)
	for tail > 0 && uint32(own[tail-1]) >= tree.polyEnd {
		tail--
	}
	for _, pi := range own[tail:] {
		q.poly(c, t, int(pi))
	}
	for ; i < end; i++ {
		// Re-read q.cand each round: a nested indexed cell may have grown it.
		ref, col, row := c.placementAt(q.cand[i] - tree.polyEnd)
		q.placement(ref, col, row, ref.Child.LayerMBR(q.l), t)
	}
	q.cand = q.cand[:base]
}

// poly tests one of c's own polygons against the window and reports a hit.
func (q *query) poly(c *Cell, t geom.Transform, i int) {
	p := &c.Polys[i]
	q.st.PolysTested++
	box := t.ApplyRect(p.Shape.MBR())
	if !box.Overlaps(q.window) {
		return
	}
	q.st.PolysHit++
	var shape geom.Polygon
	if q.slab != nil {
		shape = q.slab.Transform(p.Shape, t)
	} else {
		shape = p.Shape.Transform(t)
	}
	if q.fill != nil {
		q.fill.PolyStart = append(q.fill.PolyStart, int32(len(q.slab.Points())))
		q.fill.Boxes = append(q.fill.Boxes, box)
		if q.out == nil {
			return
		}
	}
	q.out = append(q.out, PlacedPoly{Src: PolyRef{Cell: c, Idx: i}, Trans: t, Shape: shape})
}

// placement descends into instance (col, row) of ref — whose child has layer
// extent childR — unless that extent, placed, misses the window. t places
// the referencing cell.
func (q *query) placement(ref *Ref, col, row int, childR geom.Rect, t geom.Transform) {
	inst := ref.Placement(col, row).Compose(t)
	if !inst.ApplyRect(childR).Overlaps(q.window) {
		q.st.NodesPruned++
		return
	}
	q.cell(ref.Child, inst)
}

// FlattenLayer returns every polygon instance on the layer in the global
// frame. This is what the flat baselines and the parallel mode's edge
// packing consume.
func (lo *Layout) FlattenLayer(l Layer) []PlacedPoly {
	polys, _ := lo.FlattenLayerSlab(l)
	return polys
}

// FlattenLayerSlab is FlattenLayer that also returns the one vertex array
// the shapes are carved from, in output order: shape i's ring follows shape
// i−1's. Every instance on the layer overlaps the full-layer window, so the
// layer's subtree counts are the exact output sizes: one allocation for the
// instances and one for their vertices, however large the layer.
func (lo *Layout) FlattenLayerSlab(l Layer) ([]PlacedPoly, []geom.Point) {
	s := lo.Top.slot(l)
	if s.mbr.Empty() {
		return nil, nil
	}
	q := query{l: l, window: s.mbr, out: make([]PlacedPoly, 0, s.subtree), slab: geom.NewSlab(s.verts)}
	q.cell(lo.Top, geom.Identity())
	return q.out, q.slab.Points()
}

// Fill is a layer flattened straight into packed form: polygon i's ring, in
// the global frame, is Pts[PolyStart[i]:PolyStart[i+1]] and its box
// Boxes[i]. Polys holds the instance records, their shapes carved from Pts,
// only when FillLayer was asked for them. The order, the rings and the boxes
// are FlattenLayerSlab's: its slab, the offsets of its shapes and their MBRs.
type Fill struct {
	Pts       []geom.Point
	PolyStart []int32 // len = polygons+1, PolyStart[0] = 0
	Boxes     []geom.Rect
	Polys     []PlacedPoly // nil unless records were asked for
}

// FillLayer flattens the layer into a Fill: FlattenLayerSlab's walk, keeping
// each instance's vertex count and box (the placed MBR its window test
// computes, which is the placed shape's MBR) and, with records, its record.
// Like it, it allocates each array once, at its exact size.
func (lo *Layout) FillLayer(l Layer, records bool) Fill {
	s := lo.Top.slot(l)
	if s.mbr.Empty() {
		return Fill{PolyStart: []int32{0}}
	}
	f := Fill{PolyStart: append(make([]int32, 0, s.subtree+1), 0), Boxes: make([]geom.Rect, 0, s.subtree)}
	q := query{l: l, window: s.mbr, slab: geom.NewSlab(s.verts), fill: &f}
	if records {
		q.out = make([]PlacedPoly, 0, s.subtree)
	}
	q.cell(lo.Top, geom.Identity())
	f.Pts, f.Polys = q.slab.Points(), q.out
	return f
}

// NumInstancesOnLayer counts instance-expanded polygons on the layer (the
// flat size, versus NumPolysOnLayer's definition count). The count is
// precomputed bottom-up at build time, so this is a table lookup.
func (lo *Layout) NumInstancesOnLayer(l Layer) int {
	return lo.Top.SubtreePolyCount(l)
}

// instanceCounts returns, per cell ID, how many times the cell is
// instantiated in the fully expanded layout (the top cell counts once).
// Computed by a reverse-topological pass: parents before children.
func (lo *Layout) instanceCounts() []int {
	counts := make([]int, len(lo.Cells))
	counts[lo.Top.ID] = 1
	for i := len(lo.Cells) - 1; i >= 0; i-- { // parents after children in Cells
		c := lo.Cells[i]
		if counts[c.ID] == 0 {
			continue
		}
		for ri := range c.Refs {
			ref := &c.Refs[ri]
			counts[ref.Child.ID] += counts[c.ID] * ref.NumPlacements()
		}
	}
	return counts
}

// Placements returns, for every cell ID, the global-frame transforms of all
// of that cell's instances in the fully expanded layout (the top cell has
// exactly the identity placement). This is the instance enumeration the
// hierarchical check pruning uses to replay per-definition results.
func (lo *Layout) Placements() [][]geom.Transform {
	out := make([][]geom.Transform, len(lo.Cells))
	out[lo.Top.ID] = []geom.Transform{geom.Identity()}
	// Parents come after children in Cells, so walk backwards: every
	// placement of a parent spawns placements of its children.
	for i := len(lo.Cells) - 1; i >= 0; i-- {
		c := lo.Cells[i]
		parents := out[c.ID]
		if len(parents) == 0 {
			continue
		}
		for ri := range c.Refs {
			ref := &c.Refs[ri]
			ref.ForEachPlacement(func(pt geom.Transform) {
				for _, t := range parents {
					out[ref.Child.ID] = append(out[ref.Child.ID], pt.Compose(t))
				}
			})
		}
	}
	return out
}

// QuerySubtree returns every polygon on the layer within the subtree rooted
// at cell whose transformed MBR overlaps the window; both the window and the
// returned shapes are in the cell's local frame. Subtrees without layer
// geometry are pruned by the layer-wise MBRs exactly as in QueryLayer.
func (lo *Layout) QuerySubtree(cell *Cell, l Layer, window geom.Rect) []PlacedPoly {
	q := query{l: l, window: window,
		out: make([]PlacedPoly, 0, capHint(cell.SubtreePolyCount(l), cell.LayerMBR(l), window))}
	q.cell(cell, geom.Identity())
	return q.out
}

// CompressionStats quantifies what preserving the hierarchy saves — the
// paper's memory argument for structure references ("a structure reference
// effectively stores a pointer to the structure definition to reduce memory
// consumption") and the baseline its data-compression roadmap item would
// improve on.
type CompressionStats struct {
	DefinitionPolys int     // polygons stored (one per definition)
	InstancePolys   int     // polygons a flat layout would store
	DefinitionCells int     // cell definitions
	InstanceCells   int     // cell instances in the expanded layout
	Ratio           float64 // InstancePolys / DefinitionPolys
}

// Compression returns the hierarchy's polygon compression statistics.
func (lo *Layout) Compression() CompressionStats {
	counts := lo.instanceCounts()
	var st CompressionStats
	st.DefinitionCells = len(lo.Cells)
	for _, c := range lo.Cells {
		st.DefinitionPolys += len(c.Polys)
		st.InstanceCells += counts[c.ID]
		st.InstancePolys += counts[c.ID] * len(c.Polys)
	}
	if st.DefinitionPolys > 0 {
		st.Ratio = float64(st.InstancePolys) / float64(st.DefinitionPolys)
	}
	return st
}
