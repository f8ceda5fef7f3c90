// Package layout is OpenDRC's hierarchical layout database. It preserves the
// GDSII cell hierarchy instead of flattening (Section IV-A of the paper):
// each structure reference stores a pointer to the shared cell definition,
// and every cell is augmented with per-layer minimum bounding rectangles so
// that layer range queries can prune whole subtrees whose MBR for the layer
// of interest is empty; a lazily built spatial index per (cell, layer) finds
// the children worth testing, so a narrow query does not visit the rest of a
// flat cell's placements (index.go). The package also builds the layer-wise
// duplicated hierarchy ("a separated hierarchy tree is built for each
// layer"); the element-level inverted index the paper describes as a
// space-for-speed trade is each cell's layer table, which lists the cell's
// own polygons per layer.
package layout

import (
	"cmp"
	"fmt"
	"slices"

	"opendrc/internal/geom"
)

// Layer identifies a mask layer. OpenDRC keys geometry by GDSII layer number
// (datatypes are preserved on polygons but rules bind to layers, as in the
// paper's `db.layer(19)` interface).
type Layer int16

// Common ASAP7-style BEOL layer numbers used by the benchmarks and examples.
// The numbers follow the ASAP7 PDK GDS layer map.
const (
	LayerM1 Layer = 19
	LayerV1 Layer = 21
	LayerM2 Layer = 20
	LayerV2 Layer = 22
	LayerM3 Layer = 30
)

// LayerName returns a human-readable name for well-known layers.
func LayerName(l Layer) string {
	switch l {
	case LayerM1:
		return "M1"
	case LayerM2:
		return "M2"
	case LayerM3:
		return "M3"
	case LayerV1:
		return "V1"
	case LayerV2:
		return "V2"
	}
	return fmt.Sprintf("L%d", int16(l))
}

// Poly is one polygon on a layer within a cell, in the cell's local frame.
type Poly struct {
	Layer    Layer
	DataType int16
	Shape    geom.Polygon
}

// Label is a text annotation within a cell.
type Label struct {
	Layer Layer
	Pos   geom.Point
	Text  string
}

// Ref is a placement of a child cell, possibly repeated as a Cols × Rows
// array (an AREF kept unexpanded to preserve the hierarchy's compression;
// SREFs have Cols == Rows == 1). Trans places instance (0,0); instance
// (c, r) adds c·ColStep + r·RowStep to the offset.
type Ref struct {
	Child      *Cell
	Trans      geom.Transform
	Cols, Rows int
	ColStep    geom.Point
	RowStep    geom.Point
}

// NumPlacements returns the number of instances the reference expands to.
func (r *Ref) NumPlacements() int { return r.Cols * r.Rows }

// Placement returns the transform of instance (col, row).
func (r *Ref) Placement(col, row int) geom.Transform {
	t := r.Trans
	t.Offset = t.Offset.Add(r.ColStep.Scale(int64(col))).Add(r.RowStep.Scale(int64(row)))
	return t
}

// extent returns the box, in the referencing cell's frame, of everything the
// reference places of a child box. Array instance offsets are linear in
// (col, row), so the four corner instances bound the whole array — no need
// to visit all cols × rows placements.
func (r *Ref) extent(childR geom.Rect) geom.Rect {
	u := r.Trans.ApplyRect(childR)
	if r.Cols > 1 || r.Rows > 1 {
		u = u.Union(r.Placement(r.Cols-1, 0).ApplyRect(childR)).
			Union(r.Placement(0, r.Rows-1).ApplyRect(childR)).
			Union(r.Placement(r.Cols-1, r.Rows-1).ApplyRect(childR))
	}
	return u
}

// ForEachPlacement calls fn with the transform of every instance.
func (r *Ref) ForEachPlacement(fn func(geom.Transform)) {
	for c := 0; c < r.Cols; c++ {
		for row := 0; row < r.Rows; row++ {
			fn(r.Placement(c, row))
		}
	}
}

// Cell is one structure definition. Cells are shared: every Ref to a cell
// points at the same *Cell, so geometry is stored once no matter how many
// times the cell is instantiated.
type Cell struct {
	Name   string
	ID     int // dense index in Layout.Cells; stable node id for pruning
	Polys  []Poly
	Labels []Label
	Refs   []Ref

	// layers is the cell's layer table (see layerSlot), sorted by layer.
	layers []layerSlot
	// mbr is the all-layer bounding box.
	mbr geom.Rect
	// placeStart numbers the cell's child placements for the spatial index
	// (see numberPlacements); nil for leaf cells and unindexable ones.
	placeStart []uint32
	// labelOrder lists the indices of Labels sorted by (layer, x, index),
	// built once with the cell; edits never touch labels.
	labelOrder []int32
}

// indexLabels builds the cell's label index (see LabelIn).
func (c *Cell) indexLabels() {
	if len(c.Labels) == 0 {
		return
	}
	c.labelOrder = make([]int32, len(c.Labels))
	for i := range c.labelOrder {
		c.labelOrder[i] = int32(i)
	}
	slices.SortStableFunc(c.labelOrder, func(i, j int32) int {
		a, b := &c.Labels[i], &c.Labels[j]
		if a.Layer != b.Layer {
			return cmp.Compare(a.Layer, b.Layer)
		}
		return cmp.Compare(a.Pos.X, b.Pos.X)
	})
}

// LabelIn returns the text of the label on layer lying on or inside the
// cell polygon p — the paper's polygon "name" — or "" when there is none.
// When several do, the first in label order wins. The label index is
// searched for the layer's labels within p's x-extent, so the cost is the
// labels under p's MBR, not all of the cell's.
func (c *Cell) LabelIn(layer Layer, p geom.Polygon) string {
	mbr := p.MBR()
	order := c.labelOrder
	k, _ := slices.BinarySearchFunc(order, mbr.XLo, func(i int32, x int64) int {
		l := &c.Labels[i]
		if l.Layer != layer {
			return cmp.Compare(l.Layer, layer)
		}
		return cmp.Compare(l.Pos.X, x)
	})
	best := int32(-1)
	for _, i := range order[k:] {
		l := &c.Labels[i]
		if l.Layer != layer || l.Pos.X > mbr.XHi {
			break
		}
		if (best < 0 || i < best) && mbr.Contains(l.Pos) && p.ContainsPoint(l.Pos) {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return c.Labels[best].Text
}

// layerSlot is one row of a cell's layer table: everything the cell knows
// about one layer. A cell has a slot for exactly the layers its subtree has
// geometry on — mbr is never empty, and a slot an edit empties is removed —
// and a cell spans a handful of layers, so finding a slot is a short scan.
type layerSlot struct {
	layer Layer
	// mbr bounds the layer's geometry in the cell's frame, including geometry
	// inside referenced children ("for a cell that spans multiple layers,
	// separated MBRs are computed for each layer").
	mbr geom.Rect
	// edges counts the axis-aligned edges of the cell's own polygons on the
	// layer; used by executor selection in the parallel mode.
	edges int
	// polys indexes the cell's own polygons on the layer, ascending, so range
	// queries and flattening never scan other layers' shapes (essential for
	// top cells holding tens of thousands of routing polygons).
	polys []int32
	// subtree is the instance-expanded polygon count on the layer of the
	// subtree rooted at one placement of the cell — the exact output size of
	// a full-subtree query, used to pre-size query results.
	subtree int
	// verts is the vertex count of those subtree polygons — the exact size of
	// the vertex array a full-layer flatten carves its shapes from.
	verts int
	// index is the lazily built spatial index, nil unless the cell has more
	// than indexMinItems items on the layer (see index.go).
	index *layerIndex
	// kids is what the cell's children place on the layer, summed once at
	// build: refs and child definitions never change, so a refresh after an
	// edit walks the cell's own polygons alone.
	kids kidsAgg
}

// kidsAgg aggregates a cell's child placements on one layer: the extent of
// what they place (cell frame), their subtree polygons and vertices, and how
// many placements have geometry on the layer.
type kidsAgg struct {
	mbr                        geom.Rect
	subtree, verts, placements int
}

// noSlot stands in for the slot of a layer a cell does not have: no geometry,
// zero counts. It is only ever read.
var noSlot = layerSlot{mbr: geom.EmptyRect(), kids: kidsAgg{mbr: geom.EmptyRect()}}

// slot returns the cell's slot for the layer, or noSlot.
func (c *Cell) slot(l Layer) *layerSlot {
	if i, ok := c.slotIndex(l); ok {
		return &c.layers[i]
	}
	return &noSlot
}

// slotIndex returns where the layer's slot is in the table, or where it
// would be inserted.
func (c *Cell) slotIndex(l Layer) (int, bool) {
	i := 0
	for i < len(c.layers) && c.layers[i].layer < l {
		i++
	}
	return i, i < len(c.layers) && c.layers[i].layer == l
}

// MBR returns the cell's all-layer bounding box (local frame).
func (c *Cell) MBR() geom.Rect { return c.mbr }

// LayerMBR returns the cell's bounding box for one layer (local frame); it
// is empty when the subtree rooted at the cell has no geometry on the layer.
func (c *Cell) LayerMBR(l Layer) geom.Rect { return c.slot(l).mbr }

// HasLayer reports whether the subtree rooted at the cell contains any
// geometry on the layer — the subtree-pruning predicate for range queries.
func (c *Cell) HasLayer(l Layer) bool { return !c.slot(l).mbr.Empty() }

// Layers returns the layers present in the subtree, sorted.
func (c *Cell) Layers() []Layer {
	out := make([]Layer, len(c.layers))
	for i := range c.layers {
		out[i] = c.layers[i].layer
	}
	return out
}

// LocalEdgeCount returns the number of polygon edges the cell itself (not
// its children) contributes on the layer.
func (c *Cell) LocalEdgeCount(l Layer) int { return c.slot(l).edges }

// LocalPolyIndex returns the indices of the cell's own polygons on the
// layer, ascending, without copying. The returned slice is shared and must
// not be mutated.
func (c *Cell) LocalPolyIndex(l Layer) []int32 { return c.slot(l).polys }

// SubtreePolyCount returns the instance-expanded polygon count on the layer
// of the subtree rooted at one placement of the cell — the exact size of a
// full-subtree query result, precomputed at build time.
func (c *Cell) SubtreePolyCount(l Layer) int { return c.slot(l).subtree }

// Layout is the loaded hierarchical database.
type Layout struct {
	Name string
	// DBUPerMeter converts database units to meters (1e9 for 1nm units).
	DBUPerMeter float64
	// Cells in topological order: children before parents. Cell.ID indexes
	// this slice.
	Cells []*Cell
	// Top is the hierarchy root (the unique unreferenced cell; when several
	// exist the one with the largest bounding box is chosen and the rest
	// are recorded in Warnings).
	Top *Cell

	byName map[string]*Cell

	// layerCells is the layer-wise duplicated hierarchy: for each layer,
	// the IDs of cells whose subtree touches the layer, in topological
	// order. A query for layer l only ever visits layerCells[l].
	layerCells map[Layer][]int

	// magnified holds, per layer, the first reference in cell and reference
	// order that places geometry on the layer magnified. Edits change neither
	// references nor child definitions, so it is computed once, at build.
	magnified map[Layer]magRef

	Warnings []string
}

// magRef is a magnified reference: the referencing cell, the child, and
// the reference's position in cell and reference order.
type magRef struct {
	ord           int
	parent, child *Cell
}

// MagnifiedRef returns the first magnified reference, in cell and reference
// order, whose child's subtree has geometry on one of the layers — the names
// of the referencing cell and the child — and whether there is one.
func (lo *Layout) MagnifiedRef(layers []Layer) (parent, child string, ok bool) {
	var first magRef
	for _, l := range layers {
		if m, has := lo.magnified[l]; has && (!ok || m.ord < first.ord) {
			first, ok = m, true
		}
	}
	if !ok {
		return "", "", false
	}
	return first.parent.Name, first.child.Name, true
}

// PolyRef addresses one polygon inside one cell definition.
type PolyRef struct {
	Cell *Cell
	Idx  int
}

// CellByName returns the named cell, or nil.
func (lo *Layout) CellByName(name string) *Cell { return lo.byName[name] }

// Layers returns all layers present anywhere in the layout, sorted.
func (lo *Layout) Layers() []Layer {
	out := make([]Layer, 0, len(lo.layerCells))
	for l := range lo.layerCells {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// LayerCells returns the cells participating in the layer's duplicated
// hierarchy tree, children before parents.
func (lo *Layout) LayerCells(l Layer) []*Cell {
	ids := lo.layerCells[l]
	out := make([]*Cell, len(ids))
	for i, id := range ids {
		out[i] = lo.Cells[id]
	}
	return out
}

// NumPolysOnLayer returns the number of polygon *definitions* on the layer
// (not instance-expanded): the layer's cells' own polygons on it.
func (lo *Layout) NumPolysOnLayer(l Layer) int {
	n := 0
	for _, id := range lo.layerCells[l] {
		n += len(lo.Cells[id].slot(l).polys)
	}
	return n
}
