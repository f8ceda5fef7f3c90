package layout_test

import (
	"slices"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// slabFill derives a Fill from FlattenLayerSlab: its vertex array, the
// offsets of its shapes and their MBRs.
func slabFill(lo *layout.Layout, l layout.Layer) layout.Fill {
	polys, pts := lo.FlattenLayerSlab(l)
	f := layout.Fill{Pts: pts, PolyStart: make([]int32, 1, len(polys)+1)}
	for _, pp := range polys {
		f.PolyStart = append(f.PolyStart, f.PolyStart[len(f.PolyStart)-1]+int32(pp.Shape.NumVertices()))
		f.Boxes = append(f.Boxes, pp.Shape.MBR())
	}
	return f
}

// requireFillIsSlab asserts FillLayer equals slabFill on every layer of lo,
// and that with records its records are FlattenLayerSlab's, each holding its
// ring of the fill.
func requireFillIsSlab(t *testing.T, name string, lo *layout.Layout) {
	t.Helper()
	for _, l := range lo.Layers() {
		got, want := lo.FillLayer(l, false), slabFill(lo, l)
		if got.Polys != nil {
			t.Errorf("%s layer %d: a fill without records holds %d", name, l, len(got.Polys))
		}
		if !slices.Equal(got.Pts, want.Pts) {
			t.Errorf("%s layer %d: filled vertices differ from the flatten's slab (%d vs %d)", name, l, len(got.Pts), len(want.Pts))
		}
		if !slices.Equal(got.PolyStart, want.PolyStart) {
			t.Errorf("%s layer %d: PolyStart differs from the flatten's shape offsets (%d vs %d entries)", name, l, len(got.PolyStart), len(want.PolyStart))
		}
		if !slices.Equal(got.Boxes, want.Boxes) {
			t.Errorf("%s layer %d: boxes differ from the placed shapes' MBRs", name, l)
		}
		if len(got.PolyStart) == 0 || got.PolyStart[0] != 0 || len(got.Boxes) != len(got.PolyStart)-1 {
			t.Errorf("%s layer %d: %d offsets for %d boxes", name, l, len(got.PolyStart), len(got.Boxes))
		}
		rec := lo.FillLayer(l, true)
		polys, _ := lo.FlattenLayerSlab(l)
		if !slices.Equal(rec.Pts, got.Pts) || !slices.Equal(rec.PolyStart, got.PolyStart) || !slices.Equal(rec.Boxes, got.Boxes) {
			t.Errorf("%s layer %d: a fill with records packs differently from one without", name, l)
		}
		if len(rec.Polys) != len(polys) {
			t.Fatalf("%s layer %d: %d records, the flatten has %d", name, l, len(rec.Polys), len(polys))
		}
		for i, pp := range rec.Polys {
			ring := rec.Pts[rec.PolyStart[i]:rec.PolyStart[i+1]]
			if pp.Src != polys[i].Src || pp.Trans != polys[i].Trans || !pp.Shape.Equal(polys[i].Shape) ||
				!slices.Equal(pp.Shape.Vertices(), ring) {
				t.Fatalf("%s layer %d: record %d is not the flatten's, or not its ring in the fill", name, l, i)
			}
		}
	}
}

// TestFillLayerMatchesFlattenSlab: the records-free fill is the flatten
// without its records — same vertices in the same order, the same offsets,
// and boxes equal to the placed shapes' MBRs — and the fill with records adds
// exactly the flatten's records, on every design and on a
// fixture placing an asymmetric cell in all eight orientations and
// magnified.
func TestFillLayerMatchesFlattenSlab(t *testing.T) {
	for _, p := range synth.Designs() {
		lo, _, err := synth.Load(p.Name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		requireFillIsSlab(t, p.Name, lo)
	}

	// An L on M1 and a slanted quad on M2: neither is symmetric under any
	// orientation, so a ring written in the wrong order or frame shows.
	cell := &gdsii.Structure{Name: "L", Boundaries: []gdsii.Boundary{
		{Layer: int16(layout.LayerM1), XY: []geom.Point{
			geom.Pt(0, 0), geom.Pt(0, 90), geom.Pt(30, 90), geom.Pt(30, 40), geom.Pt(70, 40), geom.Pt(70, 0)}},
		{Layer: int16(layout.LayerM2), XY: []geom.Point{
			geom.Pt(10, 10), geom.Pt(20, 60), geom.Pt(50, 70), geom.Pt(60, 5)}},
	}}
	top := &gdsii.Structure{Name: "TOP", Boundaries: []gdsii.Boundary{
		{Layer: int16(layout.LayerM1), XY: []geom.Point{
			geom.Pt(-500, -500), geom.Pt(-500, -450), geom.Pt(-400, -450), geom.Pt(-400, -500)}},
	}}
	for k := range 8 {
		top.SRefs = append(top.SRefs, gdsii.SRef{Name: "L", Pos: geom.Pt(int64(k)*300, 0),
			Trans: gdsii.Trans{Reflect: k >= 4, AngleDeg: float64(90 * (k % 4))}})
	}
	top.SRefs = append(top.SRefs, gdsii.SRef{Name: "L", Pos: geom.Pt(0, 1000),
		Trans: gdsii.Trans{Reflect: true, Mag: 3, AngleDeg: 270}})
	top.ARefs = append(top.ARefs, gdsii.ARef{Name: "L", Cols: 3, Rows: 2,
		Origin: geom.Pt(0, 2000), ColEnd: geom.Pt(600, 2000), RowEnd: geom.Pt(0, 2400),
		Trans: gdsii.Trans{AngleDeg: 90}})
	lo, err := layout.FromLibrary(&gdsii.Library{Name: "orient", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{cell, top}})
	if err != nil {
		t.Fatal(err)
	}
	if n := lo.NumInstancesOnLayer(layout.LayerM1); n != 1+8+1+6 {
		t.Fatalf("fixture has %d M1 instances, want 16", n)
	}
	requireFillIsSlab(t, "orientations", lo)
}
