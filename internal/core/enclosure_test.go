package core

import (
	"context"
	"maps"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/klayout"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// splitMetalLibrary: a via covered by TWO abutting metal rectangles, plus a
// via that is genuinely half-uncovered, instantiated twice.
func splitMetalLibrary() *gdsii.Library {
	return &gdsii.Library{
		Name: "split", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{
			{
				Name: "CELL",
				Boundaries: []gdsii.Boundary{
					// Via 1 at [10,10]-[30,30]: covered by the union of two
					// metal halves that split at x=20.
					{Layer: int16(layout.LayerV1), XY: ring(10, 10, 30, 30)},
					{Layer: int16(layout.LayerM1), XY: ring(0, 0, 20, 40)},
					{Layer: int16(layout.LayerM1), XY: ring(20, 0, 40, 40)},
					// Via 2 at [60,10]-[80,30]: metal only covers x<=70.
					{Layer: int16(layout.LayerV1), XY: ring(60, 10, 80, 30)},
					{Layer: int16(layout.LayerM1), XY: ring(55, 0, 70, 40)},
				},
			},
			{
				Name: "TOP",
				SRefs: []gdsii.SRef{
					{Name: "CELL", Pos: geom.Pt(0, 0)},
					{Name: "CELL", Pos: geom.Pt(500, 0)},
				},
			},
		},
	}
}

// TestEnclosureAbuttingMetals pins per-polygon enclosure: a via needs one
// metal shape that encloses it with margin, so the via split across two
// abutting metals escapes in both instances just as the half-uncovered one
// does — and the sequential, parallel and KLayout flat runs agree.
func TestEnclosureAbuttingMetals(t *testing.T) {
	lo := buildLayout(t, splitMetalLibrary())
	deck := rules.Deck{
		rules.Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(5).Named("V1.EN"),
	}
	seq := runEngine(t, lo, Options{Mode: Sequential}, deck)
	escaped := map[geom.Rect]bool{}
	for _, v := range seq.Violations {
		escaped[v.Marker.Box] = true
	}
	if len(seq.Violations) != 4 {
		t.Errorf("%d violations, want 4: %v", len(seq.Violations), seq.Violations)
	}
	for _, x := range []int64{0, 500} {
		for _, via := range []geom.Rect{geom.R(x+10, 10, x+30, 30), geom.R(x+60, 10, x+80, 30)} {
			if !escaped[via] {
				t.Errorf("via %v not reported", via)
			}
		}
	}
	par := runEngine(t, lo, Options{Mode: Parallel}, deck)
	if !maps.Equal(violationKeys(par.Violations), violationKeys(seq.Violations)) {
		t.Errorf("parallel %v, sequential %v", par.Violations, seq.Violations)
	}
	flat, err := klayout.CheckContext(context.Background(), lo, deck[0], klayout.Options{Mode: klayout.Flat})
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(violationKeys(flat.Violations), violationKeys(seq.Violations)) {
		t.Errorf("KLayout flat %v, sequential %v", flat.Violations, seq.Violations)
	}
}
