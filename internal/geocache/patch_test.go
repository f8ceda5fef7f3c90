package geocache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"opendrc/internal/budget"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/synth"
)

// The patched record's oracle: whatever InvalidateRegion did — patched in
// place or dropped — every structure the cache serves afterwards must equal,
// slice for slice, the cold derivation from the packed rings it serves, those
// rings must be a cold flatten's of the edited layout up to order, and the
// instance records, when Flatten built them, must hold the rings in order. A
// layer holding records is never patched: it is dropped and refilled.

// segGuard is the guard sessions segment with on the synthetic deck (its
// maximum reach); oracleParts are the partitions kept warm beside it: the M1
// spacing reach under both algorithms, the segmentation itself, and one
// coarser than the segmentation, which a patch must drop rather than splice.
const segGuard = int64(24)

var oracleParts = []partKey{
	{18, partition.Pigeonhole}, {18, partition.SortBased},
	{segGuard, partition.Pigeonhole}, {40, partition.Pigeonhole},
}

// warmAll requests every structure of the layer's record, and its instance
// records too when records is set.
func warmAll(t *testing.T, c *Cache, lo *layout.Layout, l layout.Layer, records bool) {
	t.Helper()
	ctx := context.Background()
	if records {
		if _, err := c.Flatten(ctx, lo, l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Pack(ctx, lo, l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table(ctx, lo, l); err != nil {
		t.Fatal(err)
	}
	for _, k := range oracleParts {
		if _, err := c.Rows(ctx, lo, l, k.guard, k.alg); err != nil {
			t.Fatal(err)
		}
	}
}

// polyKeys is the order-free fingerprint of a polygon list.
func polyKeys(polys []layout.PlacedPoly) []string {
	keys := make([]string, len(polys))
	var buf []byte
	for i, pp := range polys {
		buf = append(buf[:0], pp.Src.Cell.Name...)
		buf = strconv.AppendInt(append(buf, '#'), int64(pp.Src.Idx), 10)
		buf = fmt.Append(buf, pp.Trans)
		for _, v := range pp.Shape.Vertices() {
			buf = strconv.AppendInt(append(buf, ' '), v.X, 10)
			buf = strconv.AppendInt(append(buf, ','), v.Y, 10)
		}
		keys[i] = string(buf)
	}
	sort.Strings(keys)
	return keys
}

// ringKeys is the order-free fingerprint of a packed buffer's rings.
func ringKeys(e *kernels.Edges) []string {
	keys := make([]string, e.NumPolys())
	var buf []byte
	for p := range keys {
		buf = buf[:0]
		lo, hi := e.PolyEdges(p)
		for _, v := range e.Pts[lo:hi] {
			buf = strconv.AppendInt(append(buf, ' '), v.X, 10)
			buf = strconv.AppendInt(append(buf, ','), v.Y, 10)
		}
		keys[p] = string(buf)
	}
	sort.Strings(keys)
	return keys
}

// shapesOf returns the placed shapes of polys.
func shapesOf(polys []layout.PlacedPoly) []geom.Polygon {
	shapes := make([]geom.Polygon, len(polys))
	for i := range polys {
		shapes[i] = polys[i].Shape
	}
	return shapes
}

// requireColdEqual asserts the oracle on layer l. It reads the layer's
// instance records only where the cache holds them: asking Flatten for them
// would refill the layer.
func requireColdEqual(t *testing.T, c *Cache, lo *layout.Layout, l layout.Layer) {
	t.Helper()
	ctx := context.Background()
	edges, err := c.Pack(ctx, lo, l)
	if err != nil {
		t.Fatal(err)
	}
	cold := lo.FlattenLayer(l)
	if got, want := ringKeys(edges), ringKeys(kernels.Pack(shapesOf(cold))); !reflect.DeepEqual(got, want) {
		t.Fatalf("layer %d: served buffer has %d rings, cold flatten %d; multisets differ", l, len(got), len(want))
	}
	boxes, err := c.MBRs(ctx, lo, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != edges.NumPolys() {
		t.Fatalf("layer %d: %d boxes for %d rings", l, len(boxes), edges.NumPolys())
	}
	for i := range boxes {
		lo, hi := edges.PolyEdges(i)
		if want := geom.RectFromPoints(edges.Pts[lo:hi]); boxes[i] != want {
			t.Fatalf("layer %d: box %d = %v, want %v", l, i, boxes[i], want)
		}
	}
	c.mu.Lock()
	polys := c.layers[l].flat.val.polys
	c.mu.Unlock()
	if polys != nil {
		// Vertices and offsets only: whether the buffer still borrows the
		// records' array is the sharing tests' business.
		if p := kernels.Pack(shapesOf(polys)); !slices.Equal(edges.Pts, p.Pts) || !slices.Equal(edges.PolyStart, p.PolyStart) {
			t.Fatalf("layer %d: packed edges differ from a pack of the served records", l)
		}
		if got, want := polyKeys(polys), polyKeys(cold); !reflect.DeepEqual(got, want) {
			t.Fatalf("layer %d: served records differ from a cold flatten's", l)
		}
	}
	table, err := c.Table(ctx, lo, l)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(table, kernels.NewMBRTable(boxes)) {
		t.Fatalf("layer %d: MBR table differs from a cold build", l)
	}
	if len(boxes) > 0 && &table.Boxes[0] != &boxes[0] {
		t.Fatalf("layer %d: the MBR table does not share the cached MBRs", l)
	}
	for _, k := range oracleParts {
		rows, err := c.Rows(ctx, lo, l, k.guard, k.alg)
		if err != nil {
			t.Fatal(err)
		}
		if want := partition.Rows(boxes, k.guard, k.alg); !reflect.DeepEqual(rows, want) {
			t.Fatalf("layer %d: partition %+v has %d rows, cold partition %d; rows differ", l, k, len(rows), len(want))
		}
	}
}

// editAndPatch applies one edit the way a session does — ApplyEdits, dirty
// rects dilated by the segmentation guard, InvalidateRegion — re-warms the
// layer as warmAll(records) leaves it, then asserts the oracle. A patch must
// have derived nothing cold: no flatten or pack miss, and only the dirty
// bands' polygons came back from the hierarchy. A layer holding records must
// have been dropped, and its refill is held to the oracle records and all.
func editAndPatch(t *testing.T, c *Cache, lo *layout.Layout, ed layout.Edit, records bool) RegionOutcome {
	t.Helper()
	dirty, err := lo.ApplyEdits([]layout.Edit{ed})
	if err != nil {
		t.Fatal(err)
	}
	var rects []geom.Rect
	for _, d := range dirty {
		for _, r := range d.Rects {
			rects = append(rects, r.Expand(segGuard))
		}
	}
	if len(rects) == 0 {
		return RegionOutcome{} // a delete that matched nothing: sessions skip it too
	}
	s0 := c.Stats()
	out := c.InvalidateRegion(ed.Layer, segGuard, partition.Pigeonhole, rects)
	if records && (out.Segmented || c.Stats().FullInvalidations != s0.FullInvalidations+1) {
		t.Fatalf("%+v: a layer holding instance records was not dropped: %+v", ed, out)
	}
	if out.Segmented {
		all := lo.FlattenLayer(ed.Layer)
		if out.PolysKept == 0 || out.PolysKept+out.PolysRequeried != len(all) {
			t.Fatalf("%+v: patch outcome %+v does not add up to the %d-polygon layer", ed, out, len(all))
		}
		inBands := 0
		for _, pp := range all {
			m := pp.Shape.MBR()
			for _, r := range rects {
				if m.YLo <= r.YHi && r.YLo <= m.YHi {
					inBands++
					break
				}
			}
		}
		if out.RowsDirty == 0 && out.PolysRequeried != inBands {
			t.Fatalf("%+v: gap patch re-queried %d polygons, %d overlap the dirty spans", ed, out.PolysRequeried, inBands)
		}
		if out.PolysRequeried < inBands {
			t.Fatalf("%+v: patch re-queried %d polygons, fewer than the %d in the dirty spans", ed, out.PolysRequeried, inBands)
		}
	}
	warmAll(t, c, lo, ed.Layer, records) // re-warm whatever a whole-layer drop took
	requireColdEqual(t, c, lo, ed.Layer)
	if s := c.Stats(); out.Segmented && (s.FlattenMisses != s0.FlattenMisses || s.PackMisses != s0.PackMisses) {
		t.Fatalf("%+v: patched layer still re-derived: %+v after %+v", ed, s, s0)
	}
	return out
}

func insertRect(l layout.Layer, r geom.Rect) layout.Edit {
	return layout.Edit{Op: layout.OpInsertRect, Layer: l, Rect: r}
}

func deleteRegion(l layout.Layer, r geom.Rect) layout.Edit {
	return layout.Edit{Op: layout.OpDeleteRegion, Layer: l, Rect: r}
}

// handBuilt is a flat layout whose M1 rows sit 1000 apart: row 0 one rect,
// row 1 a chain of three rects 20 apart (one row under any guard above 20,
// two once the middle one goes), rows 2..5 one rect each. M3 holds two rects
// in separate rows; M2 is empty.
func handBuilt(t *testing.T) *layout.Layout {
	t.Helper()
	rect := func(l layout.Layer, r geom.Rect) gdsii.Boundary {
		return gdsii.Boundary{Layer: int16(l), XY: []geom.Point{
			geom.Pt(r.XLo, r.YLo), geom.Pt(r.XLo, r.YHi), geom.Pt(r.XHi, r.YHi), geom.Pt(r.XHi, r.YLo)}}
	}
	top := &gdsii.Structure{Name: "TOP"}
	for _, y := range []int64{0, 2000, 3000, 4000, 5000} {
		top.Boundaries = append(top.Boundaries, rect(layout.LayerM1, geom.R(0, y, 200, y+100)))
	}
	for _, y := range []int64{1000, 1120, 1240} {
		top.Boundaries = append(top.Boundaries, rect(layout.LayerM1, geom.R(300, y, 500, y+100)))
	}
	top.Boundaries = append(top.Boundaries,
		rect(layout.LayerM3, geom.R(0, 0, 200, 100)), rect(layout.LayerM3, geom.R(0, 1000, 200, 1100)))
	lib := &gdsii.Library{Name: "hand", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{top}}
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestPatchedLayerEqualsColdDerivation runs each edit sequence on a cache
// that never built instance records, as the engine leaves it, which a patch
// keeps by row, and on one whose records Flatten built, which every edit
// drops and refills.
func TestPatchedLayerEqualsColdDerivation(t *testing.T) {
	t.Run("hand-built", func(t *testing.T) {
		for _, records := range []bool{false, true} {
			handBuiltSteps(t, records)
		}
	})

	t.Run("ethmac@0.3 random edits", func(t *testing.T) {
		for _, run := range []struct {
			seed    int64
			records bool
		}{{1, false}, {2, false}, {2, true}} {
			seed, records := run.seed, run.records
			lo, _, err := synth.Load("ethmac", 0.3)
			if err != nil {
				t.Fatal(err)
			}
			c := New(budget.Limits{})
			warmAll(t, c, lo, layout.LayerM1, records)
			rng := rand.New(rand.NewSource(seed))
			box := lo.Top.LayerMBR(layout.LayerM1)
			patched := 0
			for step := 0; step < 40; step++ {
				x := box.XLo + rng.Int63n(box.Width())
				y := box.YLo + rng.Int63n(box.Height())
				var ed layout.Edit
				switch rng.Intn(4) {
				case 0: // sliver
					ed = insertRect(layout.LayerM1, geom.R(x, y, x+9, y+60))
				case 1: // tall enough to bridge rows
					ed = insertRect(layout.LayerM1, geom.R(x, y, x+40, y+1+rng.Int63n(box.Height()/4)))
				default:
					ed = deleteRegion(layout.LayerM1, geom.R(x, y, x+300, y+150))
				}
				if editAndPatch(t, c, lo, ed, records).Segmented {
					patched++
				}
			}
			if !records && patched < 20 {
				t.Fatalf("seed %d: only %d of 40 edits patched in place; the splice went untested", seed, patched)
			}
		}
	})
}

// handBuiltSteps walks the hand-built layout through every patch shape.
func handBuiltSteps(t *testing.T, records bool) {
	lo := handBuilt(t)
	c := New(budget.Limits{})
	for _, l := range []layout.Layer{layout.LayerM1, layout.LayerM2, layout.LayerM3} {
		warmAll(t, c, lo, l, records)
	}
	steps := []struct {
		name             string
		ed               layout.Edit
		segmented        bool
		rowsTotal, dirty int
	}{
		{"insert inside a row", insertRect(layout.LayerM1, geom.R(600, 2000, 700, 2100)), true, 6, 1},
		{"insert in an inter-row gap", insertRect(layout.LayerM1, geom.R(0, 2500, 80, 2560)), true, 6, 0},
		{"rect bridging two rows", insertRect(layout.LayerM1, geom.R(800, 3050, 850, 4050)), true, 7, 2},
		{"delete that splits a row", deleteRegion(layout.LayerM1, geom.R(300, 1120, 500, 1220)), true, 6, 1},
		{"delete a whole row", deleteRegion(layout.LayerM1, geom.R(0, 5000, 200, 5100)), true, 7, 1},
		{"insert on an empty layer", insertRect(layout.LayerM2, geom.R(0, 0, 100, 100)), false, 0, 0},
		{"first half of a layer goes", deleteRegion(layout.LayerM3, geom.R(0, 0, 200, 100)), true, 2, 1},
		{"layer ends up empty", deleteRegion(layout.LayerM3, geom.R(0, 1000, 200, 1100)), false, 0, 0},
		{"insert on the emptied layer", insertRect(layout.LayerM3, geom.R(0, 0, 100, 100)), false, 0, 0},
	}
	for _, st := range steps {
		if records {
			st.segmented, st.rowsTotal, st.dirty = false, 0, 0
		}
		out := editAndPatch(t, c, lo, st.ed, records)
		if out.Segmented != st.segmented || out.RowsTotal != st.rowsTotal || out.RowsDirty != st.dirty {
			t.Fatalf("records=%v, %s: outcome %+v, want segmented=%v with %d of %d rows dirty",
				records, st.name, out, st.segmented, st.dirty, st.rowsTotal)
		}
	}
}

// TestPatchAcrossBatchesEqualsColdDerivation is a session's deferred patch:
// three edit batches land on the layout while the cache record waits, the
// third deleting a polygon the first inserted, and then one InvalidateRegion
// carries every batch's rects. The dirty rects cover every polygon that
// changed since the record was made, so the patch still meets the oracle.
func TestPatchAcrossBatchesEqualsColdDerivation(t *testing.T) {
	lo := handBuilt(t)
	c := New(budget.Limits{})
	warmAll(t, c, lo, layout.LayerM1, false)
	s0 := c.Stats()
	batches := [][]layout.Edit{
		{insertRect(layout.LayerM1, geom.R(600, 2000, 700, 2100)), insertRect(layout.LayerM1, geom.R(900, 4000, 950, 4060))},
		{insertRect(layout.LayerM1, geom.R(0, 2500, 80, 2560)), deleteRegion(layout.LayerM1, geom.R(0, 5000, 200, 5100))},
		{deleteRegion(layout.LayerM1, geom.R(600, 2000, 700, 2100))}, // the first batch's first insert
	}
	var rects []geom.Rect
	for _, b := range batches {
		dirty, err := lo.ApplyEdits(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirty {
			for _, r := range d.Rects {
				rects = append(rects, r.Expand(segGuard))
			}
		}
	}
	out := c.InvalidateRegion(layout.LayerM1, segGuard, partition.Pigeonhole, rects)
	// Rows 2000, 4000 and 5000 are dirty; the gap insert falls between rows.
	if !out.Segmented || out.RowsTotal != 6 || out.RowsDirty != 3 {
		t.Fatalf("outcome %+v, want segmented with 3 of 6 rows dirty", out)
	}
	requireColdEqual(t, c, lo, layout.LayerM1)
	if s := c.Stats(); s.FlattenMisses != s0.FlattenMisses || s.PackMisses != s0.PackMisses || s.SegmentedInvalidations != s0.SegmentedInvalidations+1 {
		t.Fatalf("one patch over three batches: %+v after %+v", s, s0)
	}
}

// TestPatchRefusedUnderBudgetsAndFaults pins the whole-layer fallback for
// caches whose flatten carries a budget check or a fault site: a patch would
// bypass both, so sessions configured with either degrade exactly as batch.
func TestPatchRefusedUnderBudgetsAndFaults(t *testing.T) {
	edit := insertRect(layout.LayerM1, geom.R(600, 2000, 700, 2100))
	for name, mk := range map[string]func() *Cache{
		"budget": func() *Cache { return New(budget.Limits{MaxFlattenPolys: 1 << 20}) },
		"fault hook": func() *Cache {
			c := New(budget.Limits{})
			c.SetFaultHook(func(context.Context, layout.Layer) error { return nil })
			return c
		},
	} {
		lo := handBuilt(t)
		c := mk()
		warmAll(t, c, lo, layout.LayerM1, false)
		if out := editAndPatch(t, c, lo, edit, false); out.Segmented {
			t.Fatalf("%s: cache patched in place: %+v", name, out)
		}
		if s := c.Stats(); s.FullInvalidations != 1 || s.FlattenMisses != 2 {
			t.Fatalf("%s: stats %+v, want one whole-layer drop and a second cold flatten", name, s)
		}
	}
}

// TestPatchAllocBytes gates the patch's memory traffic: once the first patch
// has given the buffers their tail capacity, an M1 sliver allocates a small
// fraction of the layer's packed bytes (re-deriving the layer allocated more
// than three times them).
func TestPatchAllocBytes(t *testing.T) {
	lo, _, err := synth.Load("ethmac", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(budget.Limits{})
	warmAll(t, c, lo, layout.LayerM1, false)
	edges, err := c.Pack(context.Background(), lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	box := lo.Top.LayerMBR(layout.LayerM1)
	sliver := func(i int64) []geom.Rect {
		x, y := box.XLo+box.Width()*i/7, box.YLo+box.Height()*i/7
		dirty, err := lo.ApplyEdits([]layout.Edit{insertRect(layout.LayerM1, geom.R(x, y, x+9, y+60))})
		if err != nil {
			t.Fatal(err)
		}
		return []geom.Rect{dirty[0].Rects[0].Expand(segGuard)}
	}
	if out := c.InvalidateRegion(layout.LayerM1, segGuard, partition.Pigeonhole, sliver(1)); !out.Segmented {
		t.Fatalf("warm-up sliver did not patch: %+v", out)
	}
	rects := sliver(2)
	var out RegionOutcome
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out = c.InvalidateRegion(layout.LayerM1, segGuard, partition.Pigeonhole, rects)
	runtime.ReadMemStats(&m1)
	bytes := m1.TotalAlloc - m0.TotalAlloc
	if !out.Segmented {
		t.Fatalf("sliver did not patch: %+v", out)
	}
	if limit := uint64(edges.Bytes() / 20); bytes > limit {
		t.Fatalf("warm patch allocated %d B, limit %d B (1/20 of the %d B pack)", bytes, limit, edges.Bytes())
	}
}
