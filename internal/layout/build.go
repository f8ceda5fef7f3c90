package layout

import (
	"fmt"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// FromLibrary builds the hierarchical database from a parsed GDSII library:
// it resolves structure references (rejecting undefined names and cycles),
// expands PATH elements into boundary polygons, computes the per-layer MBR
// augmentation bottom-up, and constructs the layer-wise duplicated trees and
// inverted indices.
func FromLibrary(lib *gdsii.Library) (*Layout, error) {
	lo := &Layout{
		Name:   lib.Name,
		byName: make(map[string]*Cell),
	}
	if lib.MeterUnit > 0 {
		lo.DBUPerMeter = 1 / lib.MeterUnit
	} else {
		lo.DBUPerMeter = 1e9
	}
	lo.Warnings = append(lo.Warnings, lib.Warnings...)

	// First pass: create all cells so references can resolve forward.
	cells := make(map[string]*Cell, len(lib.Structures))
	for _, st := range lib.Structures {
		if _, dup := cells[st.Name]; dup {
			return nil, fmt.Errorf("layout: duplicate structure %q", st.Name)
		}
		cells[st.Name] = &Cell{Name: st.Name}
	}

	// Second pass: fill geometry and references.
	for _, st := range lib.Structures {
		c := cells[st.Name]
		for _, b := range st.Boundaries {
			poly, err := geom.NewPolygon(b.XY)
			if err != nil {
				return nil, fmt.Errorf("layout: %s: bad boundary: %w", st.Name, err)
			}
			c.Polys = append(c.Polys, Poly{Layer: Layer(b.Layer), DataType: b.DataType, Shape: poly})
		}
		for _, p := range st.Paths {
			polys, err := ExpandPath(p)
			if err != nil {
				return nil, fmt.Errorf("layout: %s: %w", st.Name, err)
			}
			for _, poly := range polys {
				c.Polys = append(c.Polys, Poly{Layer: Layer(p.Layer), DataType: p.DataType, Shape: poly})
			}
		}
		for _, t := range st.Texts {
			c.Labels = append(c.Labels, Label{Layer: Layer(t.Layer), Pos: t.Pos, Text: t.Str})
		}
		for _, r := range st.SRefs {
			child, ok := cells[r.Name]
			if !ok {
				return nil, fmt.Errorf("layout: %s references undefined structure %q", st.Name, r.Name)
			}
			tr, err := r.Trans.Transform(r.Pos)
			if err != nil {
				return nil, fmt.Errorf("layout: %s -> %s: %w", st.Name, r.Name, err)
			}
			c.Refs = append(c.Refs, Ref{Child: child, Trans: tr, Cols: 1, Rows: 1})
		}
		for _, r := range st.ARefs {
			child, ok := cells[r.Name]
			if !ok {
				return nil, fmt.Errorf("layout: %s references undefined structure %q", st.Name, r.Name)
			}
			tr, err := r.Trans.Transform(r.Origin)
			if err != nil {
				return nil, fmt.Errorf("layout: %s -> %s: %w", st.Name, r.Name, err)
			}
			cols, rows := int(r.Cols), int(r.Rows)
			colVec := r.ColEnd.Sub(r.Origin)
			rowVec := r.RowEnd.Sub(r.Origin)
			if colVec.X%int64(cols) != 0 || colVec.Y%int64(cols) != 0 ||
				rowVec.X%int64(rows) != 0 || rowVec.Y%int64(rows) != 0 {
				return nil, fmt.Errorf("layout: %s -> %s: AREF pitch not integral", st.Name, r.Name)
			}
			c.Refs = append(c.Refs, Ref{
				Child: child, Trans: tr, Cols: cols, Rows: rows,
				ColStep: geom.Pt(colVec.X/int64(cols), colVec.Y/int64(cols)),
				RowStep: geom.Pt(rowVec.X/int64(rows), rowVec.Y/int64(rows)),
			})
		}
	}

	// Topological order (children first); also detects reference cycles.
	order, err := topoSort(lib, cells)
	if err != nil {
		return nil, err
	}
	lo.Cells = order
	for i, c := range lo.Cells {
		c.ID = i
		lo.byName[c.Name] = c
	}

	lo.computeMBRs()
	lo.buildIndices()

	if err := lo.pickTop(lib); err != nil {
		return nil, err
	}
	return lo, nil
}

// topoSort orders cells children-before-parents via DFS, detecting cycles.
func topoSort(lib *gdsii.Library, cells map[string]*Cell) ([]*Cell, error) {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	color := make(map[*Cell]int, len(cells))
	order := make([]*Cell, 0, len(cells))
	var visit func(c *Cell, path []string) error
	visit = func(c *Cell, path []string) error {
		switch color[c] {
		case gray:
			return fmt.Errorf("layout: reference cycle: %v -> %s", path, c.Name)
		case black:
			return nil
		}
		color[c] = gray
		for i := range c.Refs {
			if err := visit(c.Refs[i].Child, append(path, c.Name)); err != nil {
				return err
			}
		}
		color[c] = black
		order = append(order, c)
		return nil
	}
	// Visit in file order for deterministic IDs.
	for _, st := range lib.Structures {
		if err := visit(cells[st.Name], nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// computeMBRs fills per-layer and total MBRs bottom-up. Cells are already in
// topological order, so every child is finished before its parents.
func (lo *Layout) computeMBRs() {
	items := make(map[Layer]int) // per cell: own polygons + child placements on the layer
	for _, c := range lo.Cells {
		clear(items)
		c.layerMBR = make(map[Layer]geom.Rect)
		c.localEdgeCount = make(map[Layer]int)
		c.polysByLayer = make(map[Layer][]int32)
		c.subtreeCount = make(map[Layer]int)
		c.mbr = geom.EmptyRect()
		for i := range c.Polys {
			p := &c.Polys[i]
			r := p.Shape.MBR()
			c.layerMBR[p.Layer] = c.LayerMBR(p.Layer).Union(r)
			c.mbr = c.mbr.Union(r)
			c.localEdgeCount[p.Layer] += p.Shape.NumEdges()
			c.polysByLayer[p.Layer] = append(c.polysByLayer[p.Layer], int32(i))
			c.subtreeCount[p.Layer]++
			items[p.Layer]++
		}
		for ri := range c.Refs {
			ref := &c.Refs[ri]
			child := ref.Child
			// Array instance offsets are linear in (col, row), so the MBR
			// of the whole array is the union of the four corner-instance
			// boxes — no need to visit all cols × rows placements.
			corners := [4][2]int{
				{0, 0}, {ref.Cols - 1, 0}, {0, ref.Rows - 1}, {ref.Cols - 1, ref.Rows - 1},
			}
			for _, l := range child.Layers() {
				childR := child.layerMBR[l]
				if childR.Empty() {
					continue
				}
				u := c.LayerMBR(l)
				for _, cr := range corners {
					u = u.Union(ref.Placement(cr[0], cr[1]).ApplyRect(childR))
				}
				c.layerMBR[l] = u
				// Children finish before parents (topological order), so the
				// child's subtree count is final here; the whole array
				// contributes one subtree per placement.
				c.subtreeCount[l] += ref.NumPlacements() * child.subtreeCount[l]
				items[l] += ref.NumPlacements()
			}
			if !child.mbr.Empty() {
				for _, cr := range corners {
					c.mbr = c.mbr.Union(ref.Placement(cr[0], cr[1]).ApplyRect(child.mbr))
				}
			}
		}
		c.numberPlacements()
		for _, l := range c.Layers() {
			c.setIndexed(l, items[l])
		}
	}
}

// buildIndices constructs the layer-wise duplicated hierarchy trees and the
// element-level inverted indices.
func (lo *Layout) buildIndices() {
	lo.layerCells = make(map[Layer][]int)
	lo.inverted = make(map[Layer][]PolyRef)
	for _, c := range lo.Cells { // topological order is preserved per layer
		for _, l := range c.Layers() {
			if !c.layerMBR[l].Empty() {
				lo.layerCells[l] = append(lo.layerCells[l], c.ID)
			}
		}
		for i := range c.Polys {
			p := &c.Polys[i]
			lo.inverted[p.Layer] = append(lo.inverted[p.Layer], PolyRef{Cell: c, Idx: i})
		}
	}
}

// pickTop selects the hierarchy root.
func (lo *Layout) pickTop(lib *gdsii.Library) error {
	tops := lib.TopStructures()
	if len(tops) == 0 {
		return fmt.Errorf("layout: no top structure (every cell is referenced)")
	}
	best := lo.byName[tops[0].Name]
	for _, t := range tops[1:] {
		c := lo.byName[t.Name]
		if c.MBR().Area() > best.MBR().Area() {
			best = c
		}
	}
	if len(tops) > 1 {
		lo.Warnings = append(lo.Warnings,
			fmt.Sprintf("layout: %d top-level structures; using %q", len(tops), best.Name))
	}
	lo.Top = best
	return nil
}

// ExpandPath converts a GDSII PATH into boundary polygons, one rectangle per
// axis-aligned segment. Round ends (PathRound) are approximated by extended
// square ends, the standard conservative treatment for Manhattan DRC.
func ExpandPath(p gdsii.Path) ([]geom.Polygon, error) {
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
	var out []geom.Polygon
	for i := 0; i+1 < len(p.XY); i++ {
		a, b := p.XY[i], p.XY[i+1]
		var r geom.Rect
		switch {
		case a.Y == b.Y && a.X != b.X: // horizontal
			lo, hi := minI64(a.X, b.X), maxI64(a.X, b.X)
			if i == 0 {
				lo -= boolInt(a.X < b.X) * extend
				hi += boolInt(a.X > b.X) * extend
			}
			if i+2 == len(p.XY) {
				hi += boolInt(a.X < b.X) * extend
				lo -= boolInt(a.X > b.X) * extend
			}
			r = geom.R(lo, a.Y-half, hi, a.Y+half)
		case a.X == b.X && a.Y != b.Y: // vertical
			lo, hi := minI64(a.Y, b.Y), maxI64(a.Y, b.Y)
			if i == 0 {
				lo -= boolInt(a.Y < b.Y) * extend
				hi += boolInt(a.Y > b.Y) * extend
			}
			if i+2 == len(p.XY) {
				hi += boolInt(a.Y < b.Y) * extend
				lo -= boolInt(a.Y > b.Y) * extend
			}
			r = geom.R(a.X-half, lo, a.X+half, hi)
		default:
			return nil, fmt.Errorf("layout: non-rectilinear PATH segment %v -> %v", a, b)
		}
		out = append(out, geom.RectPolygon(r))
	}
	return out, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
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
