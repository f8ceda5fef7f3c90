package rules

import (
	"reflect"
	"slices"
	"testing"

	"opendrc/internal/checks"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
)

// labelledCell builds a one-cell layout on M1: a narrow bar, a bar exactly
// as wide as a 30 width rule's threshold under magnification 2, a wide
// square, an L-shape and a non-rectilinear triangle, with a label inside
// the square and one on M2 inside the narrow bar (which the M1 lookup must
// not see).
func labelledCell(t *testing.T) *layout.Cell {
	t.Helper()
	box := func(x0, y0, x1, y1 int64) gdsii.Boundary {
		return gdsii.Boundary{Layer: int16(layout.LayerM1), XY: []geom.Point{
			geom.Pt(x0, y0), geom.Pt(x0, y1), geom.Pt(x1, y1), geom.Pt(x1, y0)}}
	}
	st := &gdsii.Structure{Name: "TOP",
		Boundaries: []gdsii.Boundary{
			box(0, 0, 7, 100),
			box(100, 0, 115, 100),
			box(200, 0, 300, 100),
			{Layer: int16(layout.LayerM1), XY: []geom.Point{
				geom.Pt(400, 0), geom.Pt(400, 60), geom.Pt(412, 60), geom.Pt(412, 12),
				geom.Pt(470, 12), geom.Pt(470, 0)}},
			{Layer: int16(layout.LayerM1), XY: []geom.Point{
				geom.Pt(600, 0), geom.Pt(600, 40), geom.Pt(640, 0)}},
		},
		Texts: []gdsii.Text{
			{Layer: int16(layout.LayerM1), Pos: geom.Pt(250, 50), Str: "VDD"},
			{Layer: int16(layout.LayerM2), Pos: geom.Pt(3, 50), Str: "M2NET"},
		},
	}
	lo, err := layout.FromLibrary(&gdsii.Library{Name: "check", Structures: []*gdsii.Structure{st}})
	if err != nil {
		t.Fatal(err)
	}
	return lo.Top
}

func collectMarkers(dst *[]checks.Marker) func(checks.Marker) {
	return func(m checks.Marker) { *dst = append(*dst, m) }
}

// TestCheckPolygonMatchesChecks holds CheckPolygon to the direct checks call
// of each intra kind, at the threshold IntraMin gives a magnified frame.
func TestCheckPolygonMatchesChecks(t *testing.T) {
	c := labelledCell(t)
	named := func(o Obj) bool { return o.Name != "" }
	deck := []Rule{
		Layer(layout.LayerM1).Width().AtLeast(30),
		Layer(layout.LayerM1).Area().AtLeast(2500),
		Layer(layout.LayerM1).Polygons().AreRectilinear(),
		Layer(layout.LayerM1).Polygons().Ensure("named", named),
	}
	for _, r := range deck {
		for _, mag := range []int64{1, 2, 3, 7} {
			min := r.IntraMin(mag)
			for i := range c.Polys {
				p := c.Polys[i].Shape
				var got, want []checks.Marker
				r.CheckPolygon(p, layout.PolyRef{Cell: c, Idx: i}, min, collectMarkers(&got))
				switch r.Kind {
				case Width:
					checks.CheckWidth(p, min, collectMarkers(&want))
				case Area:
					if m, bad := checks.CheckArea(p, min); bad {
						want = append(want, m)
					}
				case Rectilinear:
					if m, bad := checks.CheckRectilinear(p); bad {
						want = append(want, m)
					}
				case Custom:
					if !named(Obj{Shape: p, Layer: r.Layer, Name: c.LabelIn(layout.LayerM1, p)}) {
						want = append(want, checks.Marker{Box: p.MBR()})
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v mag %d polygon %d: CheckPolygon %v, checks %v", r.Kind, mag, i, got, want)
				}
			}
		}
	}
	// The fixture must exercise every kind: each finds something at mag 1.
	for _, r := range deck {
		var n int
		for i := range c.Polys {
			r.CheckPolygon(c.Polys[i].Shape, layout.PolyRef{Cell: c, Idx: i}, r.IntraMin(1), func(checks.Marker) { n++ })
		}
		if n == 0 {
			t.Errorf("%v: no markers on the fixture", r.Kind)
		}
	}
}

// TestCheckPolygonLabelsCustomOnly: only a Custom rule reads its label
// source. Every other kind gets a PolyRef with no cell, which any read
// dereferences; Custom gets the real source and sees the same-layer label.
func TestCheckPolygonLabelsCustomOnly(t *testing.T) {
	c := labelledCell(t)
	for _, r := range []Rule{
		Layer(layout.LayerM1).Width().AtLeast(30),
		Layer(layout.LayerM1).Area().AtLeast(2500),
		Layer(layout.LayerM1).Polygons().AreRectilinear(),
		Layer(layout.LayerM1).Spacing().AtLeast(30),
		Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(5),
	} {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("%v rule read the label source", r.Kind)
				}
			}()
			for i := range c.Polys {
				r.CheckPolygon(c.Polys[i].Shape, layout.PolyRef{}, r.IntraMin(1), func(checks.Marker) {})
			}
		}()
	}
	var names []string
	r := Layer(layout.LayerM1).Polygons().Ensure("names", func(o Obj) bool {
		names = append(names, o.Name)
		return true
	})
	for i := range c.Polys {
		r.CheckPolygon(c.Polys[i].Shape, layout.PolyRef{Cell: c, Idx: i}, 0, func(checks.Marker) {})
	}
	if slices.Index(names, "VDD") < 0 || slices.Contains(names, "M2NET") {
		t.Errorf("custom rule saw names %q, want VDD and never the M2 label", names)
	}
}

// TestCheckPolygonWidthAllocsNothing: a width check allocates nothing per
// polygon, even when it emits markers.
func TestCheckPolygonWidthAllocsNothing(t *testing.T) {
	c := labelledCell(t)
	r := Layer(layout.LayerM1).Width().AtLeast(30)
	src := layout.PolyRef{Cell: c}
	n := 0
	emit := func(checks.Marker) { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		r.CheckPolygon(c.Polys[0].Shape, src, 30, emit)
	})
	if allocs != 0 {
		t.Errorf("width CheckPolygon allocates %.1f times per polygon", allocs)
	}
	if n == 0 {
		t.Fatal("the narrow bar emitted no width marker")
	}
}

func TestInputs(t *testing.T) {
	m1, v1 := layout.LayerM1, layout.LayerV1
	for _, tc := range []struct {
		r    Rule
		want []layout.Layer
	}{
		{Layer(m1).Width().AtLeast(18), []layout.Layer{m1}},
		{Layer(m1).Spacing().AtLeast(18), []layout.Layer{m1}},
		{Layer(m1).Spacing().AtLeast(18).WhenProjectionAtLeast(50, 24), []layout.Layer{m1}},
		{Layer(v1).EnclosedBy(m1).AtLeast(5), []layout.Layer{v1, m1}},
		{Layer(m1).Area().AtLeast(100), []layout.Layer{m1}},
		{Layer(m1).Polygons().AreRectilinear(), []layout.Layer{m1}},
		{Layer(m1).Polygons().Ensure("any", func(Obj) bool { return true }), []layout.Layer{m1}},
	} {
		if got := tc.r.Inputs(); !slices.Equal(got, tc.want) {
			t.Errorf("%v: Inputs() = %v, want %v", tc.r, got, tc.want)
		}
	}
}
