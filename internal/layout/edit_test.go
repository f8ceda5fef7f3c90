package layout

import (
	"sort"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// flatBoxes returns the layer's instance-expanded boxes, sorted — the
// derived-state fingerprint the edit tests compare against fresh builds.
func flatBoxes(lo *Layout, l Layer) []geom.Rect {
	var out []geom.Rect
	for _, pp := range lo.FlattenLayer(l) {
		out = append(out, pp.Shape.MBR())
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.YLo != b.YLo {
			return a.YLo < b.YLo
		}
		if a.XLo != b.XLo {
			return a.XLo < b.XLo
		}
		if a.YHi != b.YHi {
			return a.YHi < b.YHi
		}
		return a.XHi < b.XHi
	})
	return out
}

func sameBoxes(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireSameDerivedState compares every piece of derived per-layer state an
// edit must keep consistent against a freshly built layout: flatten output,
// layer MBRs, edge, subtree and vertex counts, whether the top cell's slot
// carries a spatial index, the aggregate of its children it caches, and the
// layout-level indices.
func requireSameDerivedState(t *testing.T, got, want *Layout) {
	t.Helper()
	layers := map[Layer]bool{}
	for _, l := range got.Layers() {
		layers[l] = true
	}
	for _, l := range want.Layers() {
		layers[l] = true
	}
	for l := range layers {
		if g, w := flatBoxes(got, l), flatBoxes(want, l); !sameBoxes(g, w) {
			t.Errorf("layer %v: flatten %v, want %v", l, g, w)
		}
		if g, w := got.Top.LayerMBR(l), want.Top.LayerMBR(l); g != w {
			t.Errorf("layer %v: top MBR %v, want %v", l, g, w)
		}
		if g, w := got.Top.SubtreePolyCount(l), want.Top.SubtreePolyCount(l); g != w {
			t.Errorf("layer %v: subtree count %d, want %d", l, g, w)
		}
		if g, w := got.Top.LocalEdgeCount(l), want.Top.LocalEdgeCount(l); g != w {
			t.Errorf("layer %v: local edge count %d, want %d", l, g, w)
		}
		gs, ws := got.Top.slot(l), want.Top.slot(l)
		if gs.verts != ws.verts {
			t.Errorf("layer %v: subtree vertex count %d, want %d", l, gs.verts, ws.verts)
		}
		if g, w := gs.index != nil, ws.index != nil; g != w {
			t.Errorf("layer %v: indexed %v, want %v", l, g, w)
		}
		if gs.kids != ws.kids {
			t.Errorf("layer %v: children aggregate %+v, want %+v", l, gs.kids, ws.kids)
		}
		if g, w := len(got.layerCells[l]), len(want.layerCells[l]); g != w {
			t.Errorf("layer %v: %d member cells, want %d", l, g, w)
		}
		if g, w := got.NumPolysOnLayer(l), want.NumPolysOnLayer(l); g != w {
			t.Errorf("layer %v: inverted index has %d polys, want %d", l, g, w)
		}
	}
	if got.Top.mbr != want.Top.mbr {
		t.Errorf("top cell MBR %v, want %v", got.Top.mbr, want.Top.mbr)
	}
}

func TestApplyEditsInsertMatchesFreshBuild(t *testing.T) {
	lo := build(t)
	rect := geom.R(100, 400, 300, 500)
	dirty, err := lo.ApplyEdits([]Edit{{Op: OpInsertRect, Layer: LayerM2, Rect: rect}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 1 || dirty[0].Layer != LayerM2 || dirty[0].Inserted != 1 ||
		dirty[0].Deleted != 0 || len(dirty[0].Rects) != 1 || dirty[0].Rects[0] != rect {
		t.Fatalf("dirty = %+v", dirty)
	}

	// A fresh build of the post-edit geometry is the ground truth.
	lib := testLibrary()
	for _, st := range lib.Structures {
		if st.Name == "TOP" {
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{
				Layer: int16(LayerM2), XY: []geom.Point{
					geom.Pt(100, 400), geom.Pt(100, 500), geom.Pt(300, 500), geom.Pt(300, 400),
				},
			})
		}
	}
	want, err := FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDerivedState(t, lo, want)

	// The inserted polygon is visible to window queries over its region.
	hits, _ := lo.QueryLayer(LayerM2, rect)
	found := false
	for _, pp := range hits {
		if pp.Shape.MBR() == rect {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted rect not returned by QueryLayer: %d hits", len(hits))
	}
}

func TestApplyEditsDeleteRegion(t *testing.T) {
	lo := build(t)
	a := geom.R(0, 2000, 100, 2100)
	b := geom.R(500, 2000, 600, 2100)
	if _, err := lo.ApplyEdits([]Edit{
		{Op: OpInsertRect, Layer: LayerM1, Rect: a},
		{Op: OpInsertRect, Layer: LayerM1, Rect: b},
	}); err != nil {
		t.Fatal(err)
	}
	slots := len(lo.Top.Polys)
	before := len(flatBoxes(lo, LayerM1))

	// Delete a window overlapping only rect a. The dirty rect is the deleted
	// polygon's whole MBR, not the (smaller) delete window.
	dirty, err := lo.ApplyEdits([]Edit{{Op: OpDeleteRegion, Layer: LayerM1, Rect: geom.R(50, 2050, 60, 2060)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 1 || dirty[0].Deleted != 1 || len(dirty[0].Rects) != 1 || dirty[0].Rects[0] != a {
		t.Fatalf("dirty = %+v", dirty)
	}
	if got := len(flatBoxes(lo, LayerM1)); got != before-1 {
		t.Fatalf("flatten has %d polys after delete, want %d", got, before-1)
	}
	// The slot survives as an orphan — positional Src.Idx values held by
	// consumers stay valid — but no index or query can reach it.
	if len(lo.Top.Polys) != slots {
		t.Fatalf("delete compacted Polys: %d slots, want %d", len(lo.Top.Polys), slots)
	}
	orphans := 0
	for i := range lo.Top.Polys {
		if lo.Top.Polys[i].Layer == orphanLayer {
			orphans++
		}
	}
	if orphans != 1 {
		t.Fatalf("%d orphan slots, want 1", orphans)
	}
	hits, _ := lo.QueryLayer(LayerM1, a)
	for _, pp := range hits {
		if pp.Shape.MBR() == a {
			t.Fatal("deleted polygon still visible to QueryLayer")
		}
	}

	// Child-instance geometry is out of an edit's reach: deleting a region
	// that only covers CELLA instances changes nothing and dirties nothing.
	dirty, err = lo.ApplyEdits([]Edit{{Op: OpDeleteRegion, Layer: LayerM1, Rect: geom.R(0, 0, 700, 80)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 1 || dirty[0].Deleted != 0 || len(dirty[0].Rects) != 0 {
		t.Fatalf("no-op delete dirty = %+v", dirty)
	}
	if got := len(flatBoxes(lo, LayerM1)); got != before-1 {
		t.Fatalf("no-op delete changed the flatten: %d polys", got)
	}
}

func TestApplyEditsDeleteMatchesFreshBuild(t *testing.T) {
	lo := build(t)
	keep := geom.R(100, 400, 300, 500)
	gone := geom.R(0, 3000, 50, 3050)
	if _, err := lo.ApplyEdits([]Edit{
		{Op: OpInsertRect, Layer: LayerM2, Rect: keep},
		{Op: OpInsertRect, Layer: LayerM1, Rect: gone},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := lo.ApplyEdits([]Edit{{Op: OpDeleteRegion, Layer: LayerM1, Rect: gone}}); err != nil {
		t.Fatal(err)
	}

	lib := testLibrary()
	for _, st := range lib.Structures {
		if st.Name == "TOP" {
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{
				Layer: int16(LayerM2), XY: []geom.Point{
					geom.Pt(100, 400), geom.Pt(100, 500), geom.Pt(300, 500), geom.Pt(300, 400),
				},
			})
		}
	}
	want, err := FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDerivedState(t, lo, want)
}

func TestApplyEditsValidation(t *testing.T) {
	lo := build(t)
	before := flatBoxes(lo, LayerM1)
	slots := len(lo.Top.Polys)
	bad := [][]Edit{
		{{Op: EditOp(9), Layer: LayerM1, Rect: geom.R(0, 0, 10, 10)}},
		{{Op: OpInsertRect, Layer: LayerM1, Rect: geom.R(5, 0, 5, 10)}},                         // zero width
		{{Op: OpInsertRect, Layer: LayerM1, Rect: geom.Rect{XLo: 10, YLo: 10, XHi: 0, YHi: 0}}}, // inverted
		{{Op: OpDeleteRegion, Layer: orphanLayer, Rect: geom.R(0, 0, 1, 1)}},                    // reserved
		{ // a valid edit followed by a bad one must not apply at all
			{Op: OpInsertRect, Layer: LayerM1, Rect: geom.R(0, 5000, 10, 5010)},
			{Op: EditOp(7), Layer: LayerM1, Rect: geom.R(0, 0, 1, 1)},
		},
	}
	for i, edits := range bad {
		if _, err := lo.ApplyEdits(edits); err == nil {
			t.Fatalf("case %d: no error", i)
		}
		if len(lo.Top.Polys) != slots {
			t.Fatalf("case %d: failed edit mutated Polys", i)
		}
		if !sameBoxes(flatBoxes(lo, LayerM1), before) {
			t.Fatalf("case %d: failed edit changed the flatten", i)
		}
	}

	if dirty, err := lo.ApplyEdits(nil); err != nil || dirty != nil {
		t.Fatalf("empty edit list = (%v, %v), want (nil, nil)", dirty, err)
	}
}
