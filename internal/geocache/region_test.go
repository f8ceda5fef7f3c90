package geocache

import (
	"context"
	"testing"

	"opendrc/internal/budget"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
)

// bandedLayout builds a flat layout with nBands M1 rectangles stacked in y,
// one per band: rect k spans y ∈ [k·pitch, k·pitch+height]. With a guard far
// smaller than the inter-band gap, the row partition puts each rectangle in
// its own row, making the dirty-row arithmetic of the tests exact.
func bandedLayout(t *testing.T, nBands int) *layout.Layout {
	t.Helper()
	const pitch, height, width = 1000, 100, 200
	top := &gdsii.Structure{Name: "TOP"}
	for k := 0; k < nBands; k++ {
		y := int64(k) * pitch
		top.Boundaries = append(top.Boundaries, gdsii.Boundary{
			Layer: int16(layout.LayerM1), XY: []geom.Point{
				geom.Pt(0, y), geom.Pt(0, y+height), geom.Pt(width, y+height), geom.Pt(width, y),
			},
		})
	}
	lib := &gdsii.Library{Name: "bands", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{top}}
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

const testGuard = int64(50)

// warm fills the cache's M1 record as the engine does: without instance
// records.
func warm(t *testing.T, c *Cache, lo *layout.Layout) {
	t.Helper()
	if _, err := c.Pack(context.Background(), lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateRegionDirtiesOnlyTouchedRows pins the row accounting: a rect
// abutting one band's boundary dirties exactly that row, and the patch
// requeries only the dirty band while every clean row stays in place — the
// patched record serves a cold flatten's rings without deriving anything.
func TestInvalidateRegionDirtiesOnlyTouchedRows(t *testing.T) {
	lo := bandedLayout(t, 10)
	c := New(budget.Limits{})
	warm(t, c, lo)

	// Touching band 3 exactly at its top edge (y = 3100) — inclusive overlap
	// must dirty the row; bands 0..2 and 4..9 stay clean.
	out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole,
		[]geom.Rect{geom.R(0, 3100, 10, 3150)})
	if !out.Segmented {
		t.Fatalf("not segmented: %+v", out)
	}
	if out.RowsTotal != 10 || out.RowsDirty != 1 || out.PolysKept != 9 || out.PolysRequeried != 1 {
		t.Fatalf("outcome = %+v, want 10 rows / 1 dirty / 9 kept / 1 requeried", out)
	}
	requireColdEqual(t, c, lo, layout.LayerM1)
	s := c.Stats()
	if s.SegmentedInvalidations != 1 || s.FullInvalidations != 0 {
		t.Fatalf("stats = %+v, want 1 segmented / 0 full invalidations", s)
	}
	if s.RowsReused != 9 || s.RowsRequeried != 1 || s.PatchedPolys != 1 {
		t.Fatalf("stats = %+v, want 1 patch reusing 9 rows, requerying 1 row / 1 polygon", s)
	}
	if s.FlattenMisses != 1 || s.PackMisses != 1 {
		t.Fatalf("stats = %+v: the patched layer was derived again", s)
	}
}

// TestInvalidateRegionGapSpan pins the inter-row gap case: a dirty rect
// falling between bands touches no row, yet its span is still requeried so
// geometry inserted there (before the invalidation) appears in the rebuild.
func TestInvalidateRegionGapSpan(t *testing.T) {
	lo := bandedLayout(t, 5)
	c := New(budget.Limits{})
	warm(t, c, lo)

	// Insert a new polygon in the gap between bands 2 and 3, then invalidate
	// exactly its extent: zero dirty rows, all five kept.
	gap := geom.R(0, 2400, 80, 2500)
	if _, err := lo.ApplyEdits([]layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: gap}}); err != nil {
		t.Fatal(err)
	}
	out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole, []geom.Rect{gap})
	if !out.Segmented || out.RowsDirty != 0 || out.PolysKept != 5 || out.PolysRequeried != 1 {
		t.Fatalf("outcome = %+v, want segmented with 0 dirty rows, 5 kept, the insert requeried", out)
	}
	requireColdEqual(t, c, lo, layout.LayerM1)
}

// TestInvalidateRegionRebuildAfterEdits drives the full edit cycle — insert
// into one band, delete another band's polygon — and demands the rebuilt
// flatten match a cold flatten of the edited layout.
func TestInvalidateRegionRebuildAfterEdits(t *testing.T) {
	lo := bandedLayout(t, 8)
	c := New(budget.Limits{})
	warm(t, c, lo)

	dirty, err := lo.ApplyEdits([]layout.Edit{
		{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: geom.R(300, 2000, 400, 2100)},
		{Op: layout.OpDeleteRegion, Layer: layout.LayerM1, Rect: geom.R(0, 5000, 500, 5100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rects []geom.Rect
	for _, d := range dirty {
		for _, r := range d.Rects {
			rects = append(rects, r.Expand(testGuard))
		}
	}
	out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole, rects)
	// Band 2 comes back with its old rectangle and the insert; band 5 comes
	// back empty.
	if !out.Segmented || out.RowsDirty != 2 || out.PolysKept != 6 || out.PolysRequeried != 2 {
		t.Fatalf("outcome = %+v, want segmented with 2 dirty rows, 6 kept, 2 requeried", out)
	}
	requireColdEqual(t, c, lo, layout.LayerM1)
}

// TestInvalidateRegionDegenerateCases pins every whole-layer fallback: dirty
// rects spanning all rows, an empty rect list, and a cold cache.
func TestInvalidateRegionDegenerateCases(t *testing.T) {
	ctx := context.Background()

	t.Run("all rows dirty", func(t *testing.T) {
		lo := bandedLayout(t, 6)
		c := New(budget.Limits{})
		warm(t, c, lo)
		out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole,
			[]geom.Rect{lo.Top.LayerMBR(layout.LayerM1)})
		if out.Segmented {
			t.Fatalf("whole-extent rect still segmented: %+v", out)
		}
		if s := c.Stats(); s.FullInvalidations != 1 || s.SegmentedInvalidations != 0 {
			t.Fatalf("stats = %+v, want 1 full / 0 segmented", s)
		}
		// The next flatten is a plain cold recompute, not a patch.
		if _, err := c.Flatten(ctx, lo, layout.LayerM1); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.FlattenMisses != 2 || s.SegmentedInvalidations != 0 {
			t.Fatalf("degenerate invalidation did not refill the layer cold: %+v", s)
		}
	})

	t.Run("no rects", func(t *testing.T) {
		lo := bandedLayout(t, 6)
		c := New(budget.Limits{})
		warm(t, c, lo)
		out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole, nil)
		if out.Segmented {
			t.Fatalf("empty rect list still segmented: %+v", out)
		}
		if s := c.Stats(); s.FullInvalidations != 1 {
			t.Fatalf("stats = %+v, want 1 full invalidation", s)
		}
	})

	t.Run("cold cache", func(t *testing.T) {
		c := New(budget.Limits{})
		out := c.InvalidateRegion(layout.LayerM1, testGuard, partition.Pigeonhole,
			[]geom.Rect{geom.R(0, 0, 10, 10)})
		if out.Segmented {
			t.Fatalf("cold cache still segmented: %+v", out)
		}
	})
}
