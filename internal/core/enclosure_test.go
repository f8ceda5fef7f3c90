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

// TestDeltaEnclosureFarSide pins the enclosure claim and work window of a
// restricted run under dirt narrower than a changed polygon. Via 1, wider
// than twice the rule's minimum, sits in two metals: A, the best candidate
// (worst margin 5, on the left), and B (worst margin 3, on the right). A is
// trimmed to margin 1 on the left, and the session's dirt is set to only the
// strip of metal that disappeared. Session.Invalidate would widen that strip
// to trimmed A's box, which covers the via, so the test marks the strip
// dirty below it: what it pins is rulePlan.restrict's own exactness, not the
// widening's. B becomes the best candidate, and the via's marker moves to
// its right side — outside the strip dilated by the minimum, so a claim of
// the dilated strip alone would drop the new marker. The claim takes in the
// whole neighbourhood of every via within the dilated strip. Via 2, in its
// own metal to the right, is untouched, and its marker lies in via 1's
// neighbourhood while the via itself lies outside it: only the work window,
// the claim dilated once more, reaches via 2 to re-derive the marker the
// claim takes from the record. The delta check equals a cold check of the
// trimmed layout in both modes.
func TestDeltaEnclosureFarSide(t *testing.T) {
	const min = 10
	a, trimmed, b := geom.R(-5, -15, 115, 35), geom.R(-1, -15, 115, 35), geom.R(-12, -12, 103, 32)
	strip := geom.R(a.XLo, a.YLo, trimmed.XLo, a.YHi) // A minus its trimmed self
	left, right := geom.R(-5, 0, 0, 20), geom.R(100, 0, 103, 20)
	deck := rules.Deck{rules.Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(min).Named("V1.EN")}
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		t.Run(mode.String(), func(t *testing.T) {
			lo := buildLayout(t, &gdsii.Library{Name: "farside", Structures: []*gdsii.Structure{{
				Name: "TOP",
				Boundaries: []gdsii.Boundary{
					{Layer: int16(layout.LayerV1), XY: ring(0, 0, 100, 20)},
					{Layer: int16(layout.LayerM1), XY: ring(a.XLo, a.YLo, a.XHi, a.YHi)},
					{Layer: int16(layout.LayerM1), XY: ring(b.XLo, b.YLo, b.XHi, b.YHi)},
					// Via 2 and its metal: margin 3 on the left, marker [108,111].
					{Layer: int16(layout.LayerV1), XY: ring(111, 0, 131, 20)},
					{Layer: int16(layout.LayerM1), XY: ring(108, -12, 150, 32)},
				},
			}}})
			opts := Options{Mode: mode}
			ses := NewSession(lo, opts)
			defer ses.Close(ctx)
			base, err := ses.Check(ctx, deck)
			if err != nil {
				t.Fatal(err)
			}
			// Delete A alone (the window meets A's box and no other) and insert
			// its trimmed self.
			if _, err := lo.ApplyEdits([]layout.Edit{
				{Op: layout.OpDeleteRegion, Layer: layout.LayerM1, Rect: geom.R(-4, 33, -3, 34)},
				{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: trimmed},
			}); err != nil {
				t.Fatal(err)
			}
			if err := ses.lock(ctx); err != nil {
				t.Fatal(err)
			}
			ses.markDirty(layout.LayerM1, []geom.Rect{strip}, false)
			ses.unlock()
			rep, info, err := ses.DeltaCheck(ctx, deck)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Planned || info.RulesRestricted != 1 {
				t.Fatalf("plan = %+v", info)
			}
			cold := runEngine(t, lo, opts, deck)
			boxes := func(rep *Report) map[geom.Rect]bool {
				out := map[geom.Rect]bool{}
				for _, v := range rep.Violations {
					out[v.Marker.Box] = true
				}
				return out
			}
			// The trap: via 1's marker moved from inside the dilated strip to
			// outside it.
			narrow := strip.Expand(min)
			if was, now := boxes(base), boxes(cold); len(was) != 2 || !was[left] || len(now) != 2 || !now[right] ||
				!narrow.Contains(left.Center()) || narrow.Contains(right.Center()) {
				t.Fatalf("baseline %v, cold %v: want via 1's marker moved from %v to %v", base.Violations, cold.Violations, left, right)
			}
			if canonJSON(t, rep) != canonJSON(t, cold) {
				t.Fatalf("delta %v, cold %v", rep.Violations, cold.Violations)
			}
		})
	}
}
