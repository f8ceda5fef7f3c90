package layout_test

import (
	"testing"

	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// TestNarrowQueryIsSublinear pins the index's effect by count, not by clock,
// on ethmac@1: the window the enclosure residue issues around each V1 via
// examines at most 1 % of the top cell's M1 items, where the plain walk
// examined all of them; a covering window still takes the plain walk and
// reports the layer's exact totals.
func TestNarrowQueryIsSublinear(t *testing.T) {
	lo, _, err := synth.Load("ethmac", 1)
	if err != nil {
		t.Fatal(err)
	}
	const l = layout.LayerM1
	top := lo.Top
	items := len(top.LocalPolyIndex(l))
	for ri := range top.Refs {
		if top.Refs[ri].Child.HasLayer(l) {
			items += top.Refs[ri].NumPlacements()
		}
	}
	if items < 5000 {
		t.Fatalf("top cell has only %d M1 items; the design no longer exercises a flat top", items)
	}

	vias := lo.FlattenLayer(layout.LayerV1)
	worst := 0
	for k := 0; k < len(vias); k += len(vias)/200 + 1 {
		window := vias[k].Shape.MBR().Expand(synth.MinEnclosure)
		got, st := lo.QueryLayer(l, window)
		if len(got) == 0 || st.PolysHit != len(got) {
			t.Fatalf("via %d: %d polygons, stats %+v", k, len(got), st)
		}
		worst = max(worst, st.PolysTested+st.NodesPruned+st.NodesVisited)
	}
	if worst*100 > items {
		t.Errorf("a via-sized window examined %d items of the top cell's %d: want at most 1%%", worst, items)
	}

	// Covering window: every placement descended, every polygon tested and
	// hit, and one prune per examined ref without the layer — the totals
	// the plain walk has always reported.
	placements := lo.Placements()
	wantVisited, wantPruned := 0, 0
	for _, c := range lo.LayerCells(l) {
		dead := 0
		for ri := range c.Refs {
			if !c.Refs[ri].Child.HasLayer(l) {
				dead++
			}
		}
		wantVisited += len(placements[c.ID])
		wantPruned += len(placements[c.ID]) * dead
	}
	total := lo.NumInstancesOnLayer(l)
	for _, window := range []geom.Rect{top.LayerMBR(l), top.LayerMBR(l).Expand(1000)} {
		got, st := lo.QueryLayer(l, window)
		want := layout.QueryStats{NodesVisited: wantVisited, NodesPruned: wantPruned, PolysTested: total, PolysHit: total}
		if len(got) != total || st != want {
			t.Errorf("covering window %v: %d polygons, stats %+v; want %d, %+v", window, len(got), st, total, want)
		}
	}
	t.Logf("worst via window examined %d of %d top items", worst, items)
}
