package core

import (
	"context"
	"fmt"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// A restricted run of a parallel delta check reads the polygons its work
// window returns (rulePlan.windowPolys), not the resident layer. These tests
// hold that path to the cold check where it differs most from the full run:
// magnified and rotated instances, whose polygons it checks one by one, and
// work windows that overlap, whose polygons it must list once.

// boundary is an M1 boundary through the given corners.
func boundary(pts ...geom.Point) gdsii.Boundary {
	return gdsii.Boundary{Layer: int16(layout.LayerM1), XY: pts}
}

// rectBoundary is an M1 rectangle boundary.
func rectBoundary(r geom.Rect) gdsii.Boundary {
	return boundary(geom.Pt(r.XLo, r.YLo), geom.Pt(r.XLo, r.YHi), geom.Pt(r.XHi, r.YHi), geom.Pt(r.XHi, r.YLo))
}

// libLayout builds a layout from structures, the last being the top cell.
func libLayout(t *testing.T, structs ...*gdsii.Structure) *layout.Layout {
	t.Helper()
	lo, err := layout.FromLibrary(&gdsii.Library{Name: "window", UserUnit: 1e-3, MeterUnit: 1e-9, Structures: structs})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// magnifiedLayout places one cell BAR three times: at unit scale, at
// magnification 2, and at magnification 3 rotated by 90°. BAR holds a
// 16-wide bar (fails width 18 at mag 1 only), a 6-wide bar (fails at mag 1
// and 2), a comb of ten 4-wide teeth with more than 32 edges (fails at every
// mag; the width kernel takes the sweepline for it) and a triangle (fails
// rectilinear).
func magnifiedLayout(t *testing.T) *layout.Layout {
	comb := []geom.Point{geom.Pt(0, 30), geom.Pt(0, 60)}
	for k := int64(0); k < 10; k++ {
		x := 10 * k
		if k > 0 {
			comb = append(comb, geom.Pt(x, 40), geom.Pt(x, 60))
		}
		comb = append(comb, geom.Pt(x+4, 60), geom.Pt(x+4, 40))
	}
	comb = append(comb, geom.Pt(100, 40), geom.Pt(100, 30))
	bar := &gdsii.Structure{Name: "BAR", Boundaries: []gdsii.Boundary{
		rectBoundary(geom.R(0, 0, 16, 20)),
		rectBoundary(geom.R(20, 0, 26, 20)),
		boundary(comb...),
		boundary(geom.Pt(110, 0), geom.Pt(110, 20), geom.Pt(130, 0)),
	}}
	top := &gdsii.Structure{Name: "TOP", SRefs: []gdsii.SRef{
		{Name: "BAR", Pos: geom.Pt(0, 0)},
		{Name: "BAR", Pos: geom.Pt(1000, 0), Trans: gdsii.Trans{Mag: 2}},
		{Name: "BAR", Pos: geom.Pt(3000, 0), Trans: gdsii.Trans{Mag: 3, AngleDeg: 90}},
	}}
	return libLayout(t, bar, top)
}

// TestDeltaWindowMagnified edits on top of the magnified instances of an
// intra-only deck: each edit rect holds the marker centre of a magnified
// polygon, so the restricted runs must re-derive those markers — at the
// instance's magnification, through its own transform — for the delta report
// to equal the cold one byte for byte.
func TestDeltaWindowMagnified(t *testing.T) {
	deck := rules.Deck{
		rules.Layer(layout.LayerM1).Width().AtLeast(18).Named("W"),
		rules.Layer(layout.LayerM1).Area().AtLeast(2000).Named("A"),
		rules.Layer(layout.LayerM1).Polygons().AreRectilinear().Named("R"),
	}
	// Rect by rect: the mag-2 16-wide bar (which passes there), the mag-2
	// 6-wide bar, five mag-2 teeth, the mag-2 triangle, four mag-3 teeth.
	rects := []geom.Rect{
		geom.R(1012, 12, 1021, 28),
		geom.R(1042, 12, 1051, 28),
		geom.R(1000, 90, 1100, 110),
		geom.R(1215, -5, 1265, 45),
		geom.R(2840, 0, 2860, 100),
	}
	var edits []layout.Edit
	for _, r := range rects {
		edits = append(edits, layout.Edit{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: r})
	}
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		t.Run(mode.String(), func(t *testing.T) {
			ses := NewSession(magnifiedLayout(t), Options{Mode: mode})
			defer ses.Close(ctx)
			if _, err := ses.Check(ctx, deck); err != nil {
				t.Fatal(err)
			}
			if _, err := ses.Edit(ctx, edits); err != nil {
				t.Fatal(err)
			}
			rep, info, err := ses.DeltaCheck(ctx, deck)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Planned || info.RulesRestricted != len(deck) {
				t.Fatalf("plan = %+v", info)
			}
			cold := magnifiedLayout(t)
			if _, err := cold.ApplyEdits(edits); err != nil {
				t.Fatal(err)
			}
			want := runEngine(t, cold, Options{Mode: mode}, deck)
			if canonJSON(t, rep) != canonJSON(t, want) {
				t.Fatal("delta report differs from cold check")
			}
			// The restricted runs claimed the magnified cell's markers: a BAR
			// violation of the rule under each rect but the first, whose bar
			// passes at mag 2.
			for i, r := range rects {
				rule := "W"
				if i == 3 {
					rule = "R"
				}
				n := 0
				for _, v := range rep.Violations {
					if v.Cell == "BAR" && v.Rule == rule && r.Contains(v.Marker.Box.Center()) {
						n++
					}
				}
				if (n == 0) != (i == 0) {
					t.Fatalf("%d %s violations of BAR centred in %v", n, rule, r)
				}
			}
		})
	}
}

// overlapLayout is eight 400 × 100 M1 bands 1000 apart, as bandedCoreLayout,
// plus a U at x 600..620 in band 4 whose notch is 8 wide.
func overlapLayout(t *testing.T) *layout.Layout {
	top := &gdsii.Structure{Name: "TOP"}
	for k := int64(0); k < 8; k++ {
		top.Boundaries = append(top.Boundaries, rectBoundary(geom.R(0, k*1000, 400, k*1000+100)))
	}
	top.Boundaries = append(top.Boundaries, boundary(
		geom.Pt(600, 4000), geom.Pt(600, 4100), geom.Pt(606, 4100), geom.Pt(606, 4050),
		geom.Pt(614, 4050), geom.Pt(614, 4100), geom.Pt(620, 4100), geom.Pt(620, 4000)))
	return libLayout(t, top)
}

// TestDeltaWindowOverlap edits twice next to the U, so the two work windows
// overlap each other and both hold the U: the spacing delta must list the U
// once — twice, it would pair with itself and repeat its notch — and equal
// the cold check. A second batch far away follows; the next plain check then
// patches the layer once with both batches' rects and equals cold too.
func TestDeltaWindowOverlap(t *testing.T) {
	deck := rules.Deck{rules.Layer(layout.LayerM1).Spacing().AtLeast(12).Named("S.1")}
	insert := func(r geom.Rect) layout.Edit {
		return layout.Edit{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: r}
	}
	batches := [][]layout.Edit{
		// Inside the notch, 2 from each prong; and 10 right of the U.
		{insert(geom.R(608, 4070, 612, 4080)), insert(geom.R(630, 4020, 640, 4090))},
		// 8 right of band 6.
		{insert(geom.R(408, 6000, 420, 6100))},
	}
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		t.Run(mode.String(), func(t *testing.T) {
			ses := NewSession(overlapLayout(t), Options{Mode: mode})
			defer ses.Close(ctx)
			if _, err := ses.Check(ctx, deck); err != nil {
				t.Fatal(err)
			}
			cold := overlapLayout(t)
			for i, b := range batches {
				if _, err := ses.Edit(ctx, b); err != nil {
					t.Fatal(err)
				}
				if _, err := cold.ApplyEdits(b); err != nil {
					t.Fatal(err)
				}
				rep, info, err := ses.DeltaCheck(ctx, deck)
				if err != nil {
					t.Fatal(err)
				}
				if !info.Planned || info.RulesRestricted != 1 {
					t.Fatalf("batch %d: plan = %+v", i, info)
				}
				want := runEngine(t, cold, Options{Mode: mode}, deck)
				if canonJSON(t, rep) != canonJSON(t, want) {
					t.Fatalf("batch %d: delta report differs from cold check", i)
				}
				for j := 1; j < len(rep.Violations); j++ {
					if rep.Violations[j] == rep.Violations[j-1] {
						t.Fatalf("batch %d: violation %v reported twice", i, rep.Violations[j])
					}
				}
				if i == 0 && len(rep.Violations) < 4 {
					t.Fatalf("batch 0: %d violations; the notch and the inserts' gaps went unchecked", len(rep.Violations))
				}
			}
			st0, err := ses.StatsSnapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := ses.Check(ctx, deck)
			if err != nil {
				t.Fatal(err)
			}
			if canonJSON(t, plain) != canonJSON(t, runEngine(t, cold, Options{Mode: mode}, deck)) {
				t.Fatal("plain check after the delta checks differs from cold check")
			}
			st, err := ses.StatsSnapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantPatches := map[Mode]int64{Sequential: 0, Parallel: 1}[mode]
			if patches(st0) != 0 || patches(st) != wantPatches {
				t.Fatalf("%s: %d patches by the delta checks, %d by the plain check; want 0 and %d",
					fmt.Sprint(mode), patches(st0), patches(st)-patches(st0), wantPatches)
			}
		})
	}
}
