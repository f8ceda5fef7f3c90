package geocache

import (
	"context"
	"testing"
	"unsafe"

	"opendrc/internal/budget"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/synth"
)

// Instance records, where Flatten built them, and the packed buffer share
// one vertex array: every shape's ring is its polygon's PolyStart range of
// Pts, by address, until a patch gives the buffer an array of its own.

// requireShared asserts that every shape of polys is carved, in order, from
// the borrowed vertex array of the layer's packed buffer.
func requireShared(t *testing.T, c *Cache, lo *layout.Layout, l layout.Layer) {
	t.Helper()
	ctx := context.Background()
	polys, err := c.Flatten(ctx, lo, l)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := c.Pack(ctx, lo, l)
	if err != nil {
		t.Fatal(err)
	}
	if !edges.Borrowed() {
		t.Fatalf("layer %d: a cold pack owns its vertices", l)
	}
	if edges.NumPolys() != len(polys) || len(edges.Pts) != cap(edges.Pts) {
		t.Fatalf("layer %d: %d packed polygons for %d shapes, vertex len/cap %d/%d",
			l, edges.NumPolys(), len(polys), len(edges.Pts), cap(edges.Pts))
	}
	for i := range polys {
		shape := polys[i].Shape
		lo, hi := edges.PolyEdges(i)
		if hi-lo != shape.NumVertices() || hi > lo && ringData(shape) != &edges.Pts[lo] {
			t.Fatalf("layer %d: shape %d is not vertices [%d, %d) of the packed buffer", l, i, lo, hi)
		}
		for k := range hi - lo {
			if shape.Vertex(k) != edges.Pts[lo+k] {
				t.Fatalf("layer %d: shape %d vertex %d differs from the packed one", l, i, k)
			}
		}
	}
}

func TestFlattenSharesPackedVertices(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	for _, l := range []layout.Layer{layout.LayerM1, layout.LayerM2, layout.LayerV1} {
		requireShared(t, c, lo, l)
	}
	// Pack first: the layer is filled without records, so Flatten fills it
	// again, records and all, and Pack then serves that fill's buffer.
	c2 := New(budget.Limits{})
	if _, err := c2.Pack(context.Background(), lo, layout.LayerM3); err != nil {
		t.Fatal(err)
	}
	requireShared(t, c2, lo, layout.LayerM3)
}

// TestPatchLeavesSharedVerticesInPlace: polygons read before a patch still
// read the same vertices after it — the splice wrote into an array of the
// buffer's own, not the one their shapes share — and the patched buffer no
// longer borrows. A second patch splices in place and still leaves them.
func TestPatchLeavesSharedVerticesInPlace(t *testing.T) {
	lo := bandedLayout(t, 10)
	c := New(budget.Limits{})
	ctx := context.Background()
	before, err := c.Flatten(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	before = append([]layout.PlacedPoly(nil), before...) // the patch compacts the cached list in place
	rings := make([][]geom.Point, len(before))
	for i := range before {
		rings[i] = before[i].Shape.Vertices()
	}
	shared := ringData(before[0].Shape)

	for _, y := range []int64{1100, 3100} { // band 1, then band 3: survivors above each move down
		out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole,
			[]geom.Rect{geom.R(0, y, 10, y+50)})
		if !out.Segmented {
			t.Fatalf("not segmented: %+v", out)
		}
		for i := range before {
			if got := before[i].Shape.Vertices(); !samePoints(got, rings[i]) {
				t.Fatalf("after patching y=%d: shape %d read before the patch now reads %v, want %v", y, i, got, rings[i])
			}
		}
		edges, err := c.Pack(ctx, lo, layout.LayerM1)
		if err != nil {
			t.Fatal(err)
		}
		if edges.Borrowed() || unsafe.SliceData(edges.Pts) == shared {
			t.Fatalf("after patching y=%d: the packed buffer still aliases the flatten's array", y)
		}
	}
	requireColdEqual(t, c, lo, layout.LayerM1)
	// The buffer owns its array now, so the shapes' vertices count under
	// the flatten again.
	polys, err := c.Flatten(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := c.Pack(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cap(polys))*int64(unsafe.Sizeof(layout.PlacedPoly{})) +
		int64(edges.Len())*int64(unsafe.Sizeof(geom.Point{}))
	if r := c.Resident(); r.Flatten != want {
		t.Fatalf("patched flatten holds %d B, want %d (records and vertices)", r.Flatten, want)
	}
}

func samePoints(a, b []geom.Point) bool {
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

// TestFlattenAllocsIndependentOfSize: a full-layer flatten allocates the
// same number of times for a layout and for its four-fold copy (the layout
// placed as a 2×2 array), and so does a cold cache's Flatten+Pack — no
// allocation per polygon or per vertex.
func TestFlattenAllocsIndependentOfSize(t *testing.T) {
	p, err := synth.Design("uart")
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := p.Scaled(0.2).Generate()
	one, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	box := one.Top.MBR()
	w, h := box.Width()+1000, box.Height()+1000
	quadLib := *lib
	quadLib.Structures = append(append([]*gdsii.Structure(nil), lib.Structures...), &gdsii.Structure{
		Name: "QUAD",
		ARefs: []gdsii.ARef{{Name: one.Top.Name, Cols: 2, Rows: 2,
			ColEnd: geom.Pt(2*w, 0), RowEnd: geom.Pt(0, 2*h)}},
	})
	four, err := layout.FromLibrary(&quadLib)
	if err != nil {
		t.Fatal(err)
	}
	if four.Top.Name != "QUAD" || four.NumInstancesOnLayer(layout.LayerM1) != 4*one.NumInstancesOnLayer(layout.LayerM1) {
		t.Fatalf("the copy's top is %q with %d M1 instances, want QUAD with 4 × %d",
			four.Top.Name, four.NumInstancesOnLayer(layout.LayerM1), one.NumInstancesOnLayer(layout.LayerM1))
	}
	flatten := func(lo *layout.Layout) float64 {
		return testing.AllocsPerRun(5, func() { lo.FlattenLayer(layout.LayerM1) })
	}
	if a, b := flatten(one), flatten(four); a != b {
		t.Errorf("FlattenLayer allocates %v times, %v for the four-fold copy", a, b)
	}
	cold := func(lo *layout.Layout) float64 {
		return testing.AllocsPerRun(5, func() {
			c := New(budget.Limits{})
			if _, err := c.Pack(context.Background(), lo, layout.LayerM1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := cold(one), cold(four); a != b {
		t.Errorf("a cold Flatten+Pack allocates %v times, %v for the four-fold copy", a, b)
	}
}
