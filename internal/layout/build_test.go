package layout

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// libraryBytes serialises lib, for seeding the byte-level fuzz target.
func libraryBytes(t testing.TB, lib *gdsii.Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gdsii.NewWriter(&buf).WriteLibrary(lib); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// libraryXY copies every XY ring of the library — what FromLibrary and edits
// of the layouts built from it must leave alone.
func libraryXY(lib *gdsii.Library) [][]geom.Point {
	var out [][]geom.Point
	for _, st := range lib.Structures {
		for _, b := range st.Boundaries {
			out = append(out, slices.Clone(b.XY))
		}
		for _, p := range st.Paths {
			out = append(out, slices.Clone(p.XY))
		}
	}
	return out
}

// sameFlatten reports whether two flattens, possibly of different layouts
// built from one library, list the same instances in the same order.
func sameFlatten(a, b []PlacedPoly) bool {
	return slices.EqualFunc(a, b, func(p, q PlacedPoly) bool {
		return p.Src.Cell.Name == q.Src.Cell.Name && p.Src.Idx == q.Src.Idx && p.Trans == q.Trans && p.Shape.Equal(q.Shape)
	})
}

// FuzzBuildLayout feeds arbitrary bytes through the whole ingest path —
// gdsii.Read, then FromLibrary — which must never panic or hang. When a
// layout builds, a second one built from the same Library must flatten
// identically on every layer, and editing the second must leave the first's
// flatten and the Library's XY untouched: the layouts' vertex slabs and layer
// tables alias neither each other nor the library.
func FuzzBuildLayout(f *testing.F) {
	f.Add(libraryBytes(f, testLibrary()))
	f.Add(libraryBytes(f, fuzzLibrary(newFuzzStream([]byte("build")))))
	paths := testLibrary()
	paths.Structures[0].Paths = []gdsii.Path{
		{Layer: int16(LayerM2), Width: 20, PathType: gdsii.PathExtended, XY: []geom.Point{geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(90, 60)}},
	}
	f.Add(libraryBytes(f, paths))
	full := libraryBytes(f, testLibrary())
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := gdsii.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		xy := libraryXY(lib)
		a, err := FromLibrary(lib)
		if err != nil {
			return
		}
		b, err := FromLibrary(lib)
		if err != nil {
			t.Fatalf("second build of the same library failed: %v", err)
		}
		// A few bytes can spell an array of 2³⁰ instances: flatten only
		// layers of a size a test can hold.
		var layers []Layer
		var before [][]PlacedPoly
		for _, l := range a.Layers() {
			if n := a.NumInstancesOnLayer(l); n >= 0 && n <= 1<<14 {
				layers = append(layers, l)
				before = append(before, a.FlattenLayer(l))
			}
		}
		for i, l := range layers {
			if !sameFlatten(before[i], b.FlattenLayer(l)) {
				t.Fatalf("layer %v: two builds of one library flatten differently", l)
			}
		}
		edits := []Edit{{Op: OpInsertRect, Layer: 77, Rect: geom.R(0, 0, 10, 10)}}
		for _, l := range layers {
			edits = append(edits,
				Edit{Op: OpInsertRect, Layer: l, Rect: geom.R(-50, -50, 50, 50)},
				Edit{Op: OpDeleteRegion, Layer: l, Rect: geom.R(-1<<40, -1<<40, 1<<40, 1<<40)})
		}
		if _, err := b.ApplyEdits(edits); err != nil {
			t.Fatal(err)
		}
		for i, l := range layers {
			if !sameFlatten(before[i], a.FlattenLayer(l)) {
				t.Fatalf("layer %v: editing one layout changed another built from the same library", l)
			}
		}
		if !slices.EqualFunc(xy, libraryXY(lib), slices.Equal[[]geom.Point]) {
			t.Fatal("building or editing a layout changed the library's XY")
		}
	})
}

// requireSortedTable checks the layer table's own invariants: strictly
// ascending layers, no slot without geometry.
func requireSortedTable(t *testing.T, c *Cell) {
	t.Helper()
	for i := range c.layers {
		if i > 0 && c.layers[i-1].layer >= c.layers[i].layer {
			t.Fatalf("%s: layer table out of order at %d: %v", c.Name, i, c.Layers())
		}
		if c.layers[i].mbr.Empty() {
			t.Fatalf("%s: slot for layer %v has no geometry", c.Name, c.layers[i].layer)
		}
	}
}

// TestLayerTableUnderEdits pins what ApplyEdits does to the top cell's layer
// table: a slot appears, in order, for a layer the cell never had; a layer
// that loses its last own polygon keeps its slot — polygon list empty, MBR
// fallen back to the children's — while children still have the layer, and
// loses it otherwise; the index pointer follows the item count across the
// indexMinItems threshold. Every state must match a fresh build's.
func TestLayerTableUnderEdits(t *testing.T) {
	const between Layer = 20 // sorts between the layers the cell starts with (M1 19, V1 21)
	lib := func(topBoundaries ...gdsii.Boundary) *gdsii.Library {
		top := &gdsii.Structure{Name: "TOP", Boundaries: topBoundaries}
		for k := 0; k < indexMinItems; k++ { // M1 and V1: exactly indexMinItems items each — one short of an index
			top.SRefs = append(top.SRefs, gdsii.SRef{Name: "CELLA", Pos: geom.Pt(int64(k)*200, 0)})
		}
		return &gdsii.Library{Name: "table", UserUnit: 1e-3, MeterUnit: 1e-9,
			Structures: []*gdsii.Structure{testLibrary().Structures[0], top}}
	}
	fresh := func(topBoundaries ...gdsii.Boundary) *Layout {
		t.Helper()
		lo, err := FromLibrary(lib(topBoundaries...))
		if err != nil {
			t.Fatal(err)
		}
		return lo
	}
	apply := func(lo *Layout, want *Layout, edits ...Edit) {
		t.Helper()
		if _, err := lo.ApplyEdits(edits); err != nil {
			t.Fatal(err)
		}
		requireSortedTable(t, lo.Top)
		requireSameDerivedState(t, lo, want)
		if !slices.Equal(lo.Top.Layers(), want.Top.Layers()) || !slices.Equal(lo.Layers(), want.Layers()) {
			t.Fatalf("layers %v / %v, want %v / %v", lo.Top.Layers(), lo.Layers(), want.Top.Layers(), want.Layers())
		}
		for _, l := range want.Top.Layers() {
			if g, w := lo.Top.slot(l).index != nil, want.Top.slot(l).index != nil; g != w {
				t.Fatalf("layer %v: index slot present = %v, want %v", l, g, w)
			}
		}
	}
	wire := geom.R(0, 500, 400, 520)
	boundary := func(l Layer) gdsii.Boundary { return gdsii.Boundary{Layer: int16(l), XY: rectXY(wire)} }

	lo := fresh()
	children := lo.Top.LayerMBR(LayerM1)
	if lo.Top.slot(LayerM1).index != nil {
		t.Fatalf("%d items carry an index", indexMinItems)
	}

	// A layer the top cell never had: the slot appears between its neighbours.
	apply(lo, fresh(boundary(between)), Edit{Op: OpInsertRect, Layer: between, Rect: wire})
	if got := lo.Top.Layers(); !slices.Equal(got, []Layer{LayerM1, between, LayerV1}) {
		t.Fatalf("layers after insert: %v", got)
	}
	// One more item on M1 crosses indexMinItems: the slot gains an index.
	apply(lo, fresh(boundary(between), boundary(LayerM1)), Edit{Op: OpInsertRect, Layer: LayerM1, Rect: wire})
	if lo.Top.slot(LayerM1).index == nil {
		t.Fatalf("%d items carry no index", indexMinItems+1)
	}
	// Deleting M1's last own polygon: the children keep the slot alive.
	apply(lo, fresh(boundary(between)), Edit{Op: OpDeleteRegion, Layer: LayerM1, Rect: wire})
	if s := lo.Top.slot(LayerM1); len(s.polys) != 0 || s.edges != 0 || s.mbr != children || s.index != nil {
		t.Fatalf("M1 slot after deleting its last own polygon: %+v", *s)
	}
	// Deleting the last polygon of a layer only the top cell had: the slot goes.
	apply(lo, fresh(), Edit{Op: OpDeleteRegion, Layer: between, Rect: wire})
	if lo.Top.HasLayer(between) || lo.Top.slot(between) != &noSlot {
		t.Fatal("the emptied layer kept its slot")
	}
	// A delete on a layer the cell does not have changes nothing.
	apply(lo, fresh(), Edit{Op: OpDeleteRegion, Layer: 99, Rect: wire})
}

// referenceBuildRTree is the bulk load as it was before the radix sort: whole
// 40-byte items sorted through a two-level comparator. buildRTree must
// produce the same ids and the same levels.
func referenceBuildRTree(c *Cell, l Layer) *rtree {
	type indexItem struct {
		id  uint32
		box geom.Rect
	}
	t := &rtree{polyEnd: uint32(len(c.Polys))}
	var items []indexItem
	for _, pi := range c.slot(l).polys {
		items = append(items, indexItem{id: uint32(pi), box: c.Polys[pi].Shape.MBR()})
	}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		childR := ref.Child.LayerMBR(l)
		if childR.Empty() {
			continue
		}
		id := t.polyEnd + c.placeStart[ri]
		for col := 0; col < ref.Cols; col++ {
			for row := 0; row < ref.Rows; row++ {
				items = append(items, indexItem{id: id, box: ref.Placement(col, row).ApplyRect(childR)})
				id++
			}
		}
	}
	byX := func(a, b indexItem) int {
		return cmp.Or(cmp.Compare(a.box.XLo+a.box.XHi, b.box.XLo+b.box.XHi), cmp.Compare(a.id, b.id))
	}
	byY := func(a, b indexItem) int {
		return cmp.Or(cmp.Compare(a.box.YLo+a.box.YHi, b.box.YLo+b.box.YHi), cmp.Compare(a.id, b.id))
	}
	leaves := (len(items) + indexFanout - 1) / indexFanout
	slab := int(math.Ceil(math.Sqrt(float64(leaves)))) * indexFanout
	slices.SortFunc(items, byX)
	for s := 0; s < len(items); s += slab {
		slices.SortFunc(items[s:min(s+slab, len(items))], byY)
	}
	t.ids = make([]uint32, len(items))
	level := emptyRects(leaves)
	for i, it := range items {
		t.ids[i] = it.id
		level[i/indexFanout] = level[i/indexFanout].Union(it.box)
	}
	t.levels = append(t.levels, level)
	for len(level) > indexFanout {
		up := emptyRects((len(level) + indexFanout - 1) / indexFanout)
		for i, r := range level {
			up[i/indexFanout] = up[i/indexFanout].Union(r)
		}
		t.levels = append(t.levels, up)
		level = up
	}
	return t
}

// TestIndexBulkLoadUnchanged compares the bulk load with the item sort it
// replaced on every indexed (cell, layer) pair of a spread of scenarios —
// grid-aligned placements, so equal centres (the id tie-break) are common,
// with negative coordinates and an edited cell among them.
func TestIndexBulkLoadUnchanged(t *testing.T) {
	compared := 0
	for _, seed := range []string{"", "bulk", "load", "ties broken by id", "negative coordinates"} {
		lo, err := FromLibrary(fuzzLibrary(newFuzzStream([]byte(seed))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lo.ApplyEdits([]Edit{
			{Op: OpInsertRect, Layer: LayerM1, Rect: geom.R(-9000, -9000, -8000, -8992)},
			{Op: OpDeleteRegion, Layer: LayerM2, Rect: geom.R(0, 0, 3000, 3000)},
		}); err != nil {
			t.Fatal(err)
		}
		for _, c := range lo.Cells {
			for i := range c.layers {
				s := &c.layers[i]
				if s.index == nil {
					continue
				}
				got, want := buildRTree(c, s), referenceBuildRTree(c, s.layer)
				if got.polyEnd != want.polyEnd || !slices.Equal(got.ids, want.ids) ||
					!slices.EqualFunc(got.levels, want.levels, slices.Equal[[]geom.Rect]) {
					t.Fatalf("seed %q, cell %s, layer %v: bulk load differs from the item sort", seed, c.Name, s.layer)
				}
				compared++
			}
		}
	}
	if compared < 10 {
		t.Fatalf("only %d indexed pairs compared", compared)
	}
}
