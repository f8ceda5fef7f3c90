package layout

import (
	"cmp"
	"fmt"
	"slices"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// FromLibrary builds the hierarchical database from a parsed GDSII library:
// it resolves structure references (rejecting undefined names and cycles),
// expands PATH elements into boundary polygons, computes the per-layer MBR
// augmentation bottom-up, and constructs the layer-wise duplicated trees and
// inverted indices. The library is only read — its XY rings are copied into
// the cells' own vertex slabs — so it can be built from again.
func FromLibrary(lib *gdsii.Library) (*Layout, error) {
	lo := &Layout{
		Name:        lib.Name,
		DBUPerMeter: 1e9,
		byName:      make(map[string]*Cell, len(lib.Structures)),
	}
	if lib.MeterUnit > 0 {
		lo.DBUPerMeter = 1 / lib.MeterUnit
	}
	lo.Warnings = append(lo.Warnings, lib.Warnings...)

	// First pass: create all cells so references can resolve forward. Until
	// the topological sort renumbers them, ID is the position in the file.
	cells := make([]*Cell, len(lib.Structures))
	for i, st := range lib.Structures {
		if lo.byName[st.Name] != nil {
			return nil, fmt.Errorf("layout: duplicate structure %q", st.Name)
		}
		cells[i] = &Cell{Name: st.Name, ID: i}
		lo.byName[st.Name] = cells[i]
	}

	// Second pass: fill geometry and references.
	for i, st := range lib.Structures {
		if err := cells[i].fill(st, lo.byName); err != nil {
			return nil, err
		}
	}

	// Topological order (children first); also detects reference cycles.
	order, err := topoSort(cells)
	if err != nil {
		return nil, err
	}
	lo.Cells = order
	for i, c := range lo.Cells { // children before parents, whose tables read theirs
		c.ID = i
		c.numberPlacements()
		c.buildLayerTable()
	}
	lo.layerCells = make(map[Layer][]int)
	lo.inverted = make(map[Layer][]PolyRef)
	for _, c := range lo.Cells {
		for i := range c.layers {
			// A layer some cell has a slot for has members once it is indexed.
			if l := c.layers[i].layer; lo.layerCells[l] == nil {
				lo.reindexLayer(l)
			}
		}
	}

	lo.indexMagnified()
	if err := lo.pickTop(cells); err != nil {
		return nil, err
	}
	return lo, nil
}

// indexMagnified fills lo.magnified from the finished layer tables.
func (lo *Layout) indexMagnified() {
	ord := 0
	for _, c := range lo.Cells {
		for ri := range c.Refs {
			ref := &c.Refs[ri]
			ord++
			if ref.Trans.Mag <= 1 {
				continue
			}
			for _, l := range ref.Child.Layers() {
				if _, ok := lo.magnified[l]; !ok {
					if lo.magnified == nil {
						lo.magnified = make(map[Layer]magRef)
					}
					lo.magnified[l] = magRef{ord: ord, parent: c, child: ref.Child}
				}
			}
		}
	}
}

// fill loads one structure's elements into its cell, every slice allocated
// once at its final size and every polygon normalised into one vertex slab.
func (c *Cell) fill(st *gdsii.Structure, byName map[string]*Cell) error {
	vertices, polys := 0, len(st.Boundaries)
	for _, b := range st.Boundaries {
		vertices += len(b.XY)
	}
	for _, p := range st.Paths {
		segments := max(len(p.XY)-1, 0)
		vertices, polys = vertices+4*segments, polys+segments
	}
	slab := geom.NewSlab(vertices)
	c.Polys = slices.Grow(c.Polys, polys)
	for _, b := range st.Boundaries {
		poly, err := slab.NewPolygon(b.XY)
		if err != nil {
			return fmt.Errorf("layout: %s: bad boundary: %w", st.Name, err)
		}
		c.Polys = append(c.Polys, Poly{Layer: Layer(b.Layer), DataType: b.DataType, Shape: poly})
	}
	var rects []geom.Rect
	for _, p := range st.Paths {
		var err error
		if rects, err = pathRects(p, rects[:0]); err != nil {
			return fmt.Errorf("layout: %s: %w", st.Name, err)
		}
		for _, r := range rects {
			corners := r.Corners()
			poly, err := slab.NewPolygon(corners[:])
			if err != nil {
				return fmt.Errorf("layout: %s: %w", st.Name, err)
			}
			c.Polys = append(c.Polys, Poly{Layer: Layer(p.Layer), DataType: p.DataType, Shape: poly})
		}
	}
	c.Labels = slices.Grow(c.Labels, len(st.Texts))
	for _, t := range st.Texts {
		c.Labels = append(c.Labels, Label{Layer: Layer(t.Layer), Pos: t.Pos, Text: t.Str})
	}
	c.indexLabels()
	c.Refs = slices.Grow(c.Refs, len(st.SRefs)+len(st.ARefs))
	place := func(name string, trans gdsii.Trans, pos geom.Point) (*Cell, geom.Transform, error) {
		child := byName[name]
		if child == nil {
			return nil, geom.Transform{}, fmt.Errorf("layout: %s references undefined structure %q", st.Name, name)
		}
		tr, err := trans.Transform(pos)
		if err != nil {
			return nil, tr, fmt.Errorf("layout: %s -> %s: %w", st.Name, name, err)
		}
		return child, tr, nil
	}
	for _, r := range st.SRefs {
		child, tr, err := place(r.Name, r.Trans, r.Pos)
		if err != nil {
			return err
		}
		c.Refs = append(c.Refs, Ref{Child: child, Trans: tr, Cols: 1, Rows: 1})
	}
	for _, r := range st.ARefs {
		child, tr, err := place(r.Name, r.Trans, r.Origin)
		if err != nil {
			return err
		}
		cols, rows := int64(r.Cols), int64(r.Rows)
		colVec := r.ColEnd.Sub(r.Origin)
		rowVec := r.RowEnd.Sub(r.Origin)
		if colVec.X%cols != 0 || colVec.Y%cols != 0 || rowVec.X%rows != 0 || rowVec.Y%rows != 0 {
			return fmt.Errorf("layout: %s -> %s: AREF pitch not integral", st.Name, r.Name)
		}
		c.Refs = append(c.Refs, Ref{
			Child: child, Trans: tr, Cols: int(cols), Rows: int(rows),
			ColStep: geom.Pt(colVec.X/cols, colVec.Y/cols),
			RowStep: geom.Pt(rowVec.X/rows, rowVec.Y/rows),
		})
	}
	return nil
}

// topoSort orders cells children-before-parents via DFS, detecting cycles.
// Cell IDs are still file positions here; colours are kept by ID.
func topoSort(cells []*Cell) ([]*Cell, error) {
	const gray, black = 1, 2 // on the stack, done; 0 is unvisited
	color := make([]uint8, len(cells))
	order := make([]*Cell, 0, len(cells))
	var path []string // names of the cells on the stack
	var visit func(c *Cell) error
	visit = func(c *Cell) error {
		switch color[c.ID] {
		case gray:
			return fmt.Errorf("layout: reference cycle: %v -> %s", path, c.Name)
		case black:
			return nil
		}
		color[c.ID] = gray
		path = append(path, c.Name)
		for i := range c.Refs {
			if err := visit(c.Refs[i].Child); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		color[c.ID] = black
		order = append(order, c)
		return nil
	}
	// Visit in file order for deterministic IDs.
	for _, c := range cells {
		if err := visit(c); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// buildLayerTable fills the cell's layer table and all-layer MBR. Cells are
// built in topological order, so every child's table is final.
func (c *Cell) buildLayerTable() {
	// A slot per layer of the cell's own polygons (counted in subtree, for
	// now) and of its children's subtrees.
	for i := range c.Polys {
		c.touch(c.Polys[i].Layer).subtree++
	}
	for ri := range c.Refs {
		if child := c.Refs[ri].Child; ri == 0 || child != c.Refs[ri-1].Child {
			for i := range child.layers {
				c.touch(child.layers[i].layer)
			}
		}
	}
	// One array holds every layer's polygon list; each list is capped at its
	// own end, so an edit's append moves it out instead of into the next.
	index := make([]int32, len(c.Polys))
	for i, off := 0, 0; i < len(c.layers); i++ {
		s := &c.layers[i]
		s.polys = index[off : off : off+s.subtree]
		off += s.subtree
	}
	for i := range c.Polys {
		s := c.slot(c.Polys[i].Layer)
		s.polys = append(s.polys, int32(i))
	}
	c.mbr = geom.EmptyRect()
	for i := range c.layers {
		s := &c.layers[i]
		s.kids = c.aggregateKids(s.layer)
		c.refresh(s)
		c.mbr = c.mbr.Union(s.mbr)
	}
}

// aggregateKids sums what the cell's children place on the layer from their
// finished slots.
func (c *Cell) aggregateKids(l Layer) kidsAgg {
	k := kidsAgg{mbr: geom.EmptyRect()}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		child := ref.Child.slot(l)
		if child.mbr.Empty() {
			continue
		}
		// The whole array contributes one subtree per placement.
		n := ref.NumPlacements()
		k.mbr = k.mbr.Union(ref.extent(child.mbr))
		k.subtree += n * child.subtree
		k.verts += n * child.verts
		k.placements += n
	}
	return k
}

// touch returns the cell's slot for the layer, inserting an empty one in
// layer order if there is none. The pointer is good until the next touch.
func (c *Cell) touch(l Layer) *layerSlot {
	i, ok := c.slotIndex(l)
	if !ok {
		c.layers = slices.Insert(c.layers, i, layerSlot{layer: l, mbr: geom.EmptyRect(), kids: kidsAgg{mbr: geom.EmptyRect()}})
	}
	return &c.layers[i]
}

// refresh recomputes slot s of the cell — MBR, counts (own edges, subtree
// polygons and vertices), and whether it carries a spatial index — from the
// cell's polygons on the layer (s.polys) and its children's aggregate
// (s.kids). The build and ApplyEdits both end here, so an edited cell is
// indistinguishable from one loaded in that state. An mbr left empty means
// the cell has nothing on the layer any more.
func (c *Cell) refresh(s *layerSlot) {
	s.mbr, s.edges = s.kids.mbr, 0
	for _, pi := range s.polys {
		shape := c.Polys[pi].Shape
		s.mbr = s.mbr.Union(shape.MBR())
		s.edges += shape.NumEdges()
	}
	s.subtree = len(s.polys) + s.kids.subtree
	s.verts = s.edges + s.kids.verts
	// A built tree stays valid across edits: refs never change, deleted
	// slots are filtered on visit and inserted polygons are scanned as a
	// tail, so it is dropped only once that tail outgrows its bound.
	switch {
	case len(s.polys)+s.kids.placements <= indexMinItems || c.placeStart == nil && len(c.Refs) > 0:
		s.index = nil
	case s.index == nil || s.index.outgrown(s.polys):
		s.index = new(layerIndex)
	}
}

// reindexLayer rebuilds one layer's duplicated-hierarchy membership and
// inverted index from the cells' tables, in cell (topological) order.
func (lo *Layout) reindexLayer(l Layer) {
	var cells []int
	polys := 0
	for _, c := range lo.Cells {
		if s := c.slot(l); !s.mbr.Empty() {
			cells = append(cells, c.ID)
			polys += len(s.polys)
		}
	}
	delete(lo.layerCells, l)
	delete(lo.inverted, l)
	if len(cells) > 0 {
		lo.layerCells[l] = cells
	}
	if polys > 0 {
		inv := make([]PolyRef, 0, polys)
		for _, id := range cells {
			c := lo.Cells[id]
			for _, pi := range c.slot(l).polys {
				inv = append(inv, PolyRef{Cell: c, Idx: int(pi)})
			}
		}
		lo.inverted[l] = inv
	}
}

// pickTop selects the hierarchy root among the unreferenced cells: the one
// with the largest bounding box, the first in file order among equals.
func (lo *Layout) pickTop(fileOrder []*Cell) error {
	referenced := make([]bool, len(lo.Cells))
	for _, c := range lo.Cells {
		for ri := range c.Refs {
			referenced[c.Refs[ri].Child.ID] = true
		}
	}
	tops := 0
	for _, c := range fileOrder {
		if referenced[c.ID] {
			continue
		}
		if tops++; lo.Top == nil || c.MBR().Area() > lo.Top.MBR().Area() {
			lo.Top = c
		}
	}
	if tops == 0 {
		return fmt.Errorf("layout: no top structure (every cell is referenced)")
	}
	if tops > 1 {
		lo.Warnings = append(lo.Warnings,
			fmt.Sprintf("layout: %d top-level structures; using %q", tops, lo.Top.Name))
	}
	return nil
}

// ExpandPath converts a GDSII PATH into boundary polygons, one rectangle per
// axis-aligned segment. Round ends (PathRound) are approximated by extended
// square ends, the standard conservative treatment for Manhattan DRC.
func ExpandPath(p gdsii.Path) ([]geom.Polygon, error) {
	rects, err := pathRects(p, nil)
	var out []geom.Polygon
	for _, r := range rects {
		out = append(out, geom.RectPolygon(r))
	}
	return out, err
}

// pathRects appends the path's segment rectangles to rects; nil on error.
func pathRects(p gdsii.Path, rects []geom.Rect) ([]geom.Rect, error) {
	if p.Width <= 0 {
		return nil, fmt.Errorf("layout: PATH with non-positive width %d", p.Width)
	}
	if p.Width%2 != 0 {
		return nil, fmt.Errorf("layout: PATH width %d is odd; half-width leaves the unit grid", p.Width)
	}
	half := int64(p.Width) / 2
	extend := int64(0)
	if p.PathType == gdsii.PathExtended || p.PathType == gdsii.PathRound {
		extend = half
	}
	for i := 0; i+1 < len(p.XY); i++ {
		a, b := p.XY[i], p.XY[i+1]
		// d is the segment's unit direction; exactly one component is set.
		d := geom.Pt(int64(cmp.Compare(b.X, a.X)), int64(cmp.Compare(b.Y, a.Y)))
		if (d.X == 0) == (d.Y == 0) {
			return nil, fmt.Errorf("layout: non-rectilinear PATH segment %v -> %v", a, b)
		}
		if i == 0 {
			a = a.Sub(d.Scale(extend))
		}
		if i+2 == len(p.XY) {
			b = b.Add(d.Scale(extend))
		}
		r := geom.R(a.X, a.Y, b.X, b.Y) // the centreline, widened by half across d
		rects = append(rects, geom.Rect{XLo: r.XLo - half*d.Y*d.Y, YLo: r.YLo - half*d.X*d.X,
			XHi: r.XHi + half*d.Y*d.Y, YHi: r.YHi + half*d.X*d.X})
	}
	return rects, nil
}
