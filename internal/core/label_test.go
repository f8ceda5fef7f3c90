package core

import (
	"context"
	"reflect"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/klayout"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// TestCustomRuleNamesUseSameLayerLabels: a custom rule's Obj.Name is a
// label on the polygon's own layer. An M1 label lying inside an M2 wire does
// not name it, in the engine's modes as in the three KLayout modes, so all
// five report the same unnamed wires: one per WIRE placement plus TOP's own.
func TestCustomRuleNamesUseSameLayerLabels(t *testing.T) {
	rect := func(x0, y0, x1, y1 int64) []geom.Point {
		return []geom.Point{geom.Pt(x0, y0), geom.Pt(x0, y1), geom.Pt(x1, y1), geom.Pt(x1, y0)}
	}
	m1, m2 := int16(layout.LayerM1), int16(layout.LayerM2)
	lib := &gdsii.Library{
		Name: "labels", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{
			{
				Name: "WIRE",
				Boundaries: []gdsii.Boundary{
					{Layer: m2, XY: rect(0, 0, 100, 20)},  // M1 label only: unnamed
					{Layer: m2, XY: rect(0, 40, 100, 60)}, // M2 label: named
				},
				Texts: []gdsii.Text{
					{Layer: m1, Pos: geom.Pt(50, 10), Str: "m1_net"},
					{Layer: m2, Pos: geom.Pt(50, 50), Str: "m2_net"},
				},
			},
			{
				Name: "TOP",
				Boundaries: []gdsii.Boundary{
					{Layer: m2, XY: rect(0, 500, 300, 520)}, // M1 label only: unnamed
				},
				Texts: []gdsii.Text{{Layer: m1, Pos: geom.Pt(10, 510), Str: "top_m1"}},
				SRefs: []gdsii.SRef{
					{Name: "WIRE", Pos: geom.Pt(0, 0)},
					{Name: "WIRE", Pos: geom.Pt(0, 200), Trans: gdsii.Trans{Reflect: true}},
				},
			},
		},
	}
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	r := rules.Layer(layout.LayerM2).Polygons().Ensure("non-empty name",
		func(o rules.Obj) bool { return o.Name != "" }).Named("NAME")
	var want map[string]bool
	for _, mode := range []klayout.Mode{klayout.Flat, klayout.Deep, klayout.Tiling} {
		res, err := klayout.CheckContext(context.Background(), lo, r, klayout.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		got := violationKeys(res.Violations)
		if len(got) != 3 {
			t.Errorf("KLayout %v: %d unnamed wires, want 3", mode, len(got))
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("KLayout %v: %v, flat %v", mode, got, want)
		}
	}
	for _, mode := range []Mode{Sequential, Parallel} {
		rep := checkWith(t, lo, rules.Deck{r}, Options{Mode: mode})
		if got := violationKeys(rep.Violations); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: %v, KLayout %v", mode, got, want)
		}
	}
}
