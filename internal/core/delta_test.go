package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/gdsii"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// Delta-check semantics: after in-place edits, DeltaCheck must produce the
// canonical bytes of a cold full check of the edited layout — in both modes,
// at any worker count, whether the plan ran incrementally or fell back.

// deltaTestEdits is a deterministic M1 edit batch: a sub-min-width sliver
// (fresh width violations), a close pair (fresh spacing violation), and a
// delete window, all placed relative to the layer MBR so the same values
// apply to any copy of the layout.
func deltaTestEdits(lo *layout.Layout) []layout.Edit {
	m := lo.Top.LayerMBR(layout.LayerM1)
	mx, my := (m.XLo+m.XHi)/2, (m.YLo+m.YHi)/2
	return []layout.Edit{
		{Op: layout.OpInsertRect, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: mx, YLo: my, XHi: mx + synth.MinWidthM1/2, YHi: my + 120}},
		{Op: layout.OpInsertRect, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: mx + 60, YLo: my, XHi: mx + 120, YHi: my + 120}},
		{Op: layout.OpInsertRect, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: mx + 120 + synth.MinSpaceM1/2, YLo: my, XHi: mx + 200, YHi: my + 120}},
		{Op: layout.OpDeleteRegion, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: m.XLo, YLo: m.YLo, XHi: m.XLo + 100, YHi: m.YLo + 100}},
	}
}

// stripEdits is the retired `odrc-bench -delta` sweep's batch: three
// sub-min-width slivers (fresh width violations) and one delete window, all
// inside a y-strip of fraction × the M1 extent, centred vertically — a tiny
// ECO-style fix at 0.02, a local region at 0.10, a large swath at 0.30.
func stripEdits(fraction float64) func(*layout.Layout) []layout.Edit {
	return func(lo *layout.Layout) []layout.Edit {
		m := lo.Top.LayerMBR(layout.LayerM1)
		w, h := m.Width(), m.Height()
		stripH := max(int64(float64(h)*fraction), 120)
		sliverH := max(stripH/4, 30)
		y0 := m.YLo + (h-stripH)/2
		var edits []layout.Edit
		for i := int64(0); i < 3; i++ {
			x, y := m.XLo+(i+1)*w/4, y0+i*(stripH-sliverH)/3
			edits = append(edits, layout.Edit{Op: layout.OpInsertRect, Layer: layout.LayerM1,
				Rect: geom.Rect{XLo: x, YLo: y, XHi: x + synth.MinWidthM1/2, YHi: y + sliverH}})
		}
		return append(edits, layout.Edit{Op: layout.OpDeleteRegion, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: m.XLo, YLo: y0, XHi: m.XLo + w/20, YHi: y0 + stripH}})
	}
}

// m2Segment inserts an unlabeled M2 track at the centre of the M2 extent: a
// fresh M2.NAME.1 violation, with the M2 rules and the V2-in-M2 enclosure
// re-checked around it.
func m2Segment(lo *layout.Layout) []layout.Edit {
	c := lo.Top.LayerMBR(layout.LayerM2).Center()
	return []layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM2,
		Rect: geom.Rect{XLo: c.X, YLo: c.Y, XHi: c.X + 300, YHi: c.Y + 30}}}
}

// uncoverV2 deletes the top-cell M2 under a V2 via — the first, in flatten
// order past the middle, that top-cell M2 covers — so that via, and any
// other the deleted wires covered, loses its best candidate.
func uncoverV2(lo *layout.Layout) []layout.Edit {
	vias := lo.FlattenLayer(layout.LayerV2)
	for _, via := range vias[len(vias)/2:] {
		box := via.Shape.MBR()
		metals, _ := lo.QueryLayer(layout.LayerM2, box)
		for _, m := range metals {
			if m.Src.Cell == lo.Top && m.Shape.MBR().ContainsRect(box) {
				return []layout.Edit{{Op: layout.OpDeleteRegion, Layer: layout.LayerM2, Rect: box}}
			}
		}
	}
	panic("no V2 via under top-cell M2")
}

// viaInserts inserts one V1 and one V2 via-sized square: the V1 one
// straddling the left edge of the middle M1 polygon in flatten order (half
// covered), the V2 one at the centre of the M2 extent.
func viaInserts(lo *layout.Layout) []layout.Edit {
	const side = 40
	flat := lo.FlattenLayer(layout.LayerM1)
	m1 := flat[len(flat)/2].Shape.MBR()
	c := lo.Top.LayerMBR(layout.LayerM2).Center()
	return []layout.Edit{
		{Op: layout.OpInsertRect, Layer: layout.LayerV1,
			Rect: geom.Rect{XLo: m1.XLo - side/2, YLo: m1.YLo, XHi: m1.XLo + side/2, YHi: m1.YLo + side}},
		{Op: layout.OpInsertRect, Layer: layout.LayerV2,
			Rect: geom.Rect{XLo: c.X, YLo: c.Y, XHi: c.X + side, YHi: c.Y + side}},
	}
}

// coldReport builds the ground truth: a fresh layout with the same edits
// applied, checked by a batch engine.
func coldReport(t *testing.T, design string, scale float64, opts Options, deck rules.Deck, edits []layout.Edit) *Report {
	t.Helper()
	lo, _, err := synth.Load(design, scale)
	if err != nil {
		t.Fatal(err)
	}
	if edits != nil {
		if _, err := lo.ApplyEdits(edits); err != nil {
			t.Fatal(err)
		}
	}
	e := New(opts)
	if err := e.AddRules(deck...); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDeltaCheckMatchesCold(t *testing.T) {
	type row struct {
		design  string
		scale   float64
		batch   string
		edits   func(*layout.Layout) []layout.Edit
		workers []int
	}
	rows := []row{
		{"uart", 0.2, "close-pair", deltaTestEdits, []int{1, 3}},
		// Off M1: a custom rule's window, an enclosure rule whose vias lose
		// their best candidate, and edits on the via layers themselves.
		{"uart", 0.2, "m2-segment", m2Segment, []int{1, 2}},
		{"uart", 0.2, "m2-uncover-v2", uncoverV2, []int{1, 2}},
		{"uart", 0.2, "via-inserts", viaInserts, []int{1, 2}},
	}
	for _, design := range []string{"uart", "sha3", "aes"} {
		for _, f := range []float64{0.02, 0.10, 0.30} {
			rows = append(rows, row{design, deltaStripScale, fmt.Sprintf("strip-%g", f), stripEdits(f), []int{2}})
		}
	}
	for _, r := range rows {
		for _, mode := range []Mode{Sequential, Parallel} {
			for _, workers := range r.workers {
				t.Run(fmt.Sprintf("%s@%g/%s/%v/w%d", r.design, r.scale, r.batch, mode, workers), func(t *testing.T) {
					deltaMatchesCold(t, r.design, r.scale, r.edits, Options{Mode: mode, Workers: workers})
				})
			}
		}
	}
}

// deltaStripScale sizes the strip rows so all eighteen cost the package
// under 0.1 s; the parallel ones still patch the M1 record by row rather
// than drop it (asserted per row below, at the plain check that patches).
const deltaStripScale = 0.25

// deltaMatchesCold is one TestDeltaCheckMatchesCold row: baseline, edit,
// delta check — which must plan incrementally, run every rule reading an
// edited layer restricted and skip the rest, patch nothing, look up nothing
// of the edited layers in the geometry cache and produce the canonical bytes
// of a cold check of the edited layout — then a second delta check with
// nothing dirty, then a plain check, which patches each edited layer the
// cache holds once.
func deltaMatchesCold(t *testing.T, design string, scale float64, mkEdits func(*layout.Layout) []layout.Edit, opts Options) {
	deck := synth.Deck()
	ctx := context.Background()
	lo, _, err := synth.Load(design, scale)
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(lo, opts)
	if _, err := ses.Check(ctx, deck); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	edits := mkEdits(lo)
	var edited []layout.Layer
	for _, ed := range edits {
		if !slices.Contains(edited, ed.Layer) {
			edited = append(edited, ed.Layer)
		}
	}
	lookups := countLookups(ses, edited...)
	if _, err := ses.Edit(ctx, edits); err != nil {
		t.Fatalf("edit: %v", err)
	}
	// Only a parallel session's cache holds a flatten for the dirt to wait
	// behind, of a layer a spacing rule reads; a sequential one drops it at
	// once.
	reads := func(r rules.Rule) bool {
		return slices.ContainsFunc(r.Inputs(), func(l layout.Layer) bool { return slices.Contains(edited, l) })
	}
	cached := 0
	for _, l := range edited {
		held := opts.Mode == Parallel && slices.ContainsFunc(deck, func(r rules.Rule) bool { return r.Kind == rules.Spacing && r.Layer == l })
		if ses.dirt.has(l) != held {
			t.Fatalf("%v session: %v cache dirt kept = %v", opts.Mode, l, ses.dirt.has(l))
		}
		if held {
			cached++
		}
	}
	rep, info, err := ses.DeltaCheck(ctx, deck)
	if err != nil {
		t.Fatalf("delta check: %v", err)
	}
	if !info.Planned {
		t.Fatalf("delta fell back: %+v", info)
	}
	// Every rule reading an edited layer runs restricted, whatever its kind;
	// every other rule skips.
	touched := 0
	for _, r := range deck {
		if reads(r) {
			touched++
		}
	}
	if info.RulesRestricted != touched || info.RulesFull != 0 || info.RulesSkipped != len(deck)-touched {
		t.Fatalf("plan = %+v, want %d restricted", info, touched)
	}
	// The restricted runs query their work window: the delta check reads
	// nothing of the edited layers through the geometry cache, so it leaves
	// their records unpatched (the sequential mode checks hierarchically and
	// never flattens at all).
	if n := lookups.Load(); n != 0 {
		t.Fatalf("delta check made %d geocache lookups of the edited layers", n)
	}
	if rep.Stats.FlattenCacheMisses != 0 || rep.Stats.PackCacheMisses != 0 {
		t.Fatalf("delta recomputed geometry: %+v", rep.Stats)
	}
	if st, err := ses.StatsSnapshot(ctx); err != nil {
		t.Fatal(err)
	} else if patches(st) != 0 {
		t.Fatalf("delta check patched the cache: %+v", st.Geocache)
	}
	if rep.Profile.Get("delta:patch") != 0 {
		t.Fatal("delta check booked a patch")
	}
	want := coldReport(t, design, scale, opts, deck, edits)
	if canonJSON(t, rep) != canonJSON(t, want) {
		t.Fatal("delta report differs from cold check")
	}

	// A delta check with nothing dirty skips every rule, touches no
	// geometry, and reproduces its own baseline.
	again, info2, err := ses.DeltaCheck(ctx, deck)
	if err != nil {
		t.Fatalf("empty delta: %v", err)
	}
	if !info2.Planned || info2.RulesSkipped != len(deck) {
		t.Fatalf("empty delta plan = %+v", info2)
	}
	if again.Stats.FlattenCacheMisses != 0 || again.Stats.PackCacheMisses != 0 {
		t.Fatalf("empty delta recomputed geometry: %+v", again.Stats)
	}
	if canonJSON(t, again) != canonJSON(t, rep) {
		t.Fatal("empty delta differs from its baseline")
	}
	st, err := ses.StatsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FullChecks != 1 || st.DeltaChecks != 2 || st.DeltaPlanned != 2 || st.DeltaFallbacks != 0 {
		t.Fatalf("session stats = %+v", st)
	}

	// The next plain check executes the edited layers' spacing rules in full
	// through the cache, so it patches each of their records first, once.
	// An M1 record is patched by row, with the edit's rects, and its resident
	// buffer, freed by the patch, uploaded again whole.
	plain, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatalf("plain check: %v", err)
	}
	if canonJSON(t, plain) != canonJSON(t, want) {
		t.Fatal("plain check after the delta checks differs from cold check")
	}
	st, err = ses.StatsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if patches(st) != int64(cached) {
		t.Fatalf("%d patches of %d cached edited layers: %+v", patches(st), cached, st.Geocache)
	}
	if opts.Mode == Parallel && slices.Equal(edited, []layout.Layer{layout.LayerM1}) {
		if patches(st) != 1 || st.Geocache.SegmentedInvalidations != 1 || st.Geocache.PatchedPolys == 0 {
			t.Fatalf("M1 record not patched once by row: %+v", st.Geocache)
		}
		if plain.Profile.Get("delta:patch") == 0 {
			t.Fatal("the patch is not on the plain check's books")
		}
		if plain.Stats.DeviceUploads != 1 {
			t.Fatalf("plain check: %d uploads, want the patched M1 buffer's one", plain.Stats.DeviceUploads)
		}
	}
	if err := ses.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaReportScribble: a report's Violations are the caller's, though a
// rule's record and its run in the check share one array until the report is
// laid out. Scribbling over every report the session hands out — the
// baseline's and a delta check's — changes nothing it answers next: the next
// delta check and the plain check after it equal a cold check byte for byte.
func TestDeltaReportScribble(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()
	scribble := func(rep *Report) {
		for i := range rep.Violations {
			rep.Violations[i] = rules.Violation{Rule: "scribbled"}
		}
	}
	for _, mode := range []Mode{Sequential, Parallel} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := Options{Mode: mode}
			lo, _, err := synth.Load("uart", 0.2)
			if err != nil {
				t.Fatal(err)
			}
			first, second := deltaTestEdits(lo), stripEdits(0.02)(lo)
			ses := NewSession(lo, opts)
			defer ses.Close(ctx)
			check := func(delta bool) *Report {
				t.Helper()
				if !delta {
					rep, err := ses.Check(ctx, deck)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				rep, info, err := ses.DeltaCheck(ctx, deck)
				if err != nil || !info.Planned || info.RulesRestricted == 0 {
					t.Fatalf("delta check: %+v, %v", info, err)
				}
				return rep
			}
			scribble(check(false))
			for i, batch := range [][]layout.Edit{first, second} {
				if _, err := ses.Edit(ctx, batch); err != nil {
					t.Fatal(err)
				}
				rep := check(true)
				if i == 1 {
					want := canonJSON(t, coldReport(t, "uart", 0.2, opts, deck, append(first, second...)))
					if canonJSON(t, rep) != want {
						t.Fatal("delta check after a scribbled delta report differs from cold check")
					}
					if canonJSON(t, check(false)) != want {
						t.Fatal("plain check after scribbled reports differs from cold check")
					}
				}
				scribble(rep)
			}
		})
	}
}

// patches is how many region invalidations the session's geometry cache has
// taken, whether they patched a layer's record or dropped it.
func patches(st SessionStats) int64 {
	return st.Geocache.SegmentedInvalidations + st.Geocache.FullInvalidations
}

// countLookups counts, from now on, the geometry-cache lookups of the
// layers the session's checks make (the prefetch's included).
func countLookups(ses *Session, ls ...layout.Layer) *atomic.Int64 {
	n := new(atomic.Int64)
	ses.geo.SetEventHook(func(ev geocache.Event) {
		for _, l := range ls {
			if key := layerKey(l); ev.Key == key || strings.HasPrefix(ev.Key, key+"/") {
				n.Add(1)
			}
		}
	})
	return n
}

// bandedCoreLayout mirrors the geocache banded fixture: n M1 rectangles
// stacked 1000 apart, so a tiny-reach deck keeps each in its own partition
// row and region invalidation provably segments.
func bandedCoreLayout(t *testing.T, n int) *layout.Layout {
	t.Helper()
	top := &gdsii.Structure{Name: "TOP"}
	for k := 0; k < n; k++ {
		y := int64(k) * 1000
		top.Boundaries = append(top.Boundaries, gdsii.Boundary{
			Layer: int16(layout.LayerM1), XY: []geom.Point{
				geom.Pt(0, y), geom.Pt(0, y+100), geom.Pt(400, y+100), geom.Pt(400, y),
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

// TestDeltaPartialDeviceRefresh pins the device path end to end on a layout
// where segmentation is guaranteed: the delta check leaves the resident
// buffer alone, and the next plain check patches — one band edited → one row
// requeried — frees the layer's resident edge buffer whole and uploads the
// patched buffer once, every byte of it.
func TestDeltaPartialDeviceRefresh(t *testing.T) {
	lo := bandedCoreLayout(t, 8)
	deck := rules.Deck{rules.Layer(layout.LayerM1).Spacing().AtLeast(12).Named("S.1")}
	ctx := context.Background()
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	if _, err := ses.Check(ctx, deck); err != nil {
		t.Fatal(err)
	}
	// Two rects 8 apart inside band 4: a fresh spacing violation.
	edits := []layout.Edit{
		{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: geom.R(500, 4000, 560, 4100)},
		{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: geom.R(568, 4000, 620, 4100)},
	}
	if _, err := ses.Edit(ctx, edits); err != nil {
		t.Fatal(err)
	}
	rep, info, err := ses.DeltaCheck(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Planned || info.RulesRestricted != 1 {
		t.Fatalf("plan = %+v", info)
	}
	if rep.Stats.DeviceUploads != 0 || rep.Stats.DeviceReuses != 0 {
		t.Fatalf("delta check touched the resident buffer: %d uploads, %d reuses",
			rep.Stats.DeviceUploads, rep.Stats.DeviceReuses)
	}
	plain, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := ses.StatsSnapshot(ctx); err != nil {
		t.Fatal(err)
	} else if st.Geocache.SegmentedInvalidations != 1 || st.Geocache.RowsRequeried != 1 {
		t.Fatalf("patch = %+v, want one segmented patch of one row", st.Geocache)
	} else if st.ResidentLayers != 1 {
		t.Fatalf("%d resident layers after the plain check, want 1", st.ResidentLayers)
	}

	// Ground truth: fresh layout, same edits, batch engine.
	want := func() *Report {
		flo := bandedCoreLayout(t, 8)
		if _, err := flo.ApplyEdits(edits); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Mode: Parallel})
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		rep, err := e.CheckContext(ctx, flo)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	if canonJSON(t, rep) != canonJSON(t, want) {
		t.Fatal("partial-refresh delta report differs from cold check")
	}
	if canonJSON(t, plain) != canonJSON(t, want) {
		t.Fatal("partial-refresh plain report differs from cold check")
	}
	// The patched buffer goes up whole: what a cold check of the edited
	// layout copies, buffer and MBR table.
	if plain.Stats.DeviceUploads != 1 || plain.Stats.DeviceDeltaUploads != 0 || plain.Stats.BytesCopied != want.Stats.BytesCopied {
		t.Fatalf("plain check: %d uploads, %d delta uploads, %d B copied, want one upload and the cold check's %d B",
			plain.Stats.DeviceUploads, plain.Stats.DeviceDeltaUploads, plain.Stats.BytesCopied, want.Stats.BytesCopied)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("edit created no violations; the claim path went untested")
	}
}

// TestDeltaCheckFallbacks drives every reason a delta check is not planned —
// the conditions under which a session keeps no records, and a deck none of
// whose rules has a record to go by — and demands each fallback still produce
// the cold canonical bytes; "deck changed" pins the fallback that is gone.
func TestDeltaCheckFallbacks(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()

	t.Run("no baseline", func(t *testing.T) {
		lo, _, err := synth.Load("uart", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		ses := NewSession(lo, Options{Mode: Sequential})
		defer ses.Close(ctx)
		rep, info, err := ses.DeltaCheck(ctx, deck)
		if err != nil {
			t.Fatal(err)
		}
		if info.Planned || info.Reason != "no baseline check" {
			t.Fatalf("info = %+v", info)
		}
		if canonJSON(t, rep) != canonJSON(t, coldReport(t, "uart", 0.2, Options{Mode: Sequential}, deck, nil)) {
			t.Fatal("fallback report differs from cold check")
		}
		// The fallback recorded every rule, so the next delta check plans —
		// until InvalidateAll drops the records again.
		if _, info, err := ses.DeltaCheck(ctx, deck); err != nil || !info.Planned || info.RulesSkipped != len(deck) {
			t.Fatalf("after the fallback: info = %+v, err %v", info, err)
		}
		if err := ses.InvalidateAll(ctx); err != nil {
			t.Fatal(err)
		}
		if _, info, err := ses.DeltaCheck(ctx, deck[:3]); err != nil || info.Planned || info.Reason != "no baseline check" {
			t.Fatalf("after InvalidateAll: info = %+v, err %v", info, err)
		}
	})

	t.Run("fault injection", func(t *testing.T) {
		// An injector with no programmed injections never fires, so the
		// fallback's report still matches a clean cold check — while the mere
		// presence of the injector must force the full-check path.
		lo, _, err := synth.Load("uart", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		ses := NewSession(lo, Options{Mode: Parallel, Faults: faults.New(1)})
		defer ses.Close(ctx)
		if _, err := ses.Check(ctx, deck); err != nil {
			t.Fatal(err)
		}
		edits := deltaTestEdits(lo)
		if _, err := ses.Edit(ctx, edits); err != nil {
			t.Fatal(err)
		}
		rep, info, err := ses.DeltaCheck(ctx, deck)
		if err != nil {
			t.Fatal(err)
		}
		if info.Planned || info.Reason != "fault injection active" {
			t.Fatalf("info = %+v", info)
		}
		if canonJSON(t, rep) != canonJSON(t, coldReport(t, "uart", 0.2, Options{Mode: Parallel}, deck, edits)) {
			t.Fatal("fault-mode fallback differs from cold check")
		}
		st, err := ses.StatsSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.DeltaFallbacks != 1 || st.DeltaPlanned != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("chaos stall fallback", func(t *testing.T) {
		// A real injection: the delta fallback runs under the injector like
		// any session check, so a stalled rule still honors cancellation and
		// the session survives to serve the next request.
		lo, _, err := synth.Load("uart", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(1, faults.Injection{
			Site: faults.SiteRule, Key: deck[1].ID, Mode: faults.Stall, Stall: time.Hour,
		})
		ses := NewSession(lo, Options{Mode: Sequential, Faults: inj})
		defer ses.Close(ctx)
		cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		rep, info, err := ses.DeltaCheck(cctx, deck)
		cancel()
		if rep != nil || err == nil {
			t.Fatalf("stalled delta check = (%v, %+v, %v)", rep, info, err)
		}
		rest := append(append(rules.Deck{}, deck[0]), deck[2:]...)
		after, info, err := ses.DeltaCheck(ctx, rest)
		if err != nil {
			t.Fatal(err)
		}
		if info.Planned {
			t.Fatalf("info = %+v, want fallback", info)
		}
		e := New(Options{Mode: Sequential, Faults: inj})
		if err := e.AddRules(rest...); err != nil {
			t.Fatal(err)
		}
		batch, err := e.CheckContext(ctx, lo)
		if err != nil {
			t.Fatal(err)
		}
		if canonJSON(t, after) != canonJSON(t, batch) {
			t.Fatal("session poisoned by cancelled delta check")
		}
	})

	t.Run("budgets", func(t *testing.T) {
		lo, _, err := synth.Load("uart", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Mode: Sequential, Budgets: budget.Limits{MaxFlattenPolys: 1 << 40}}
		ses := NewSession(lo, opts)
		defer ses.Close(ctx)
		if _, err := ses.Check(ctx, deck); err != nil {
			t.Fatal(err)
		}
		_, info, err := ses.DeltaCheck(ctx, deck)
		if err != nil {
			t.Fatal(err)
		}
		if info.Planned || info.Reason != "resource budgets active" {
			t.Fatalf("info = %+v", info)
		}
	})

	t.Run("deck changed", func(t *testing.T) {
		// Records are per rule, so a deck that differs from every deck checked
		// before still plans: a sub-deck skips wholesale, and a single-rule
		// check between an edit and its delta check costs a full run only for
		// the rules whose record it left behind the consumed dirt.
		for _, mode := range []Mode{Sequential, Parallel} {
			lo, _, err := synth.Load("uart", 0.2)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Mode: mode}
			ses := NewSession(lo, opts)
			defer ses.Close(ctx)
			if _, err := ses.Check(ctx, deck); err != nil {
				t.Fatal(err)
			}
			_, info, err := ses.DeltaCheck(ctx, deck[1:])
			if err != nil {
				t.Fatal(err)
			}
			if !info.Planned || info.RulesSkipped != len(deck)-1 {
				t.Fatalf("%v: sub-deck info = %+v", mode, info)
			}
			edits := deltaTestEdits(lo)
			if _, err := ses.Edit(ctx, edits); err != nil {
				t.Fatal(err)
			}
			one := deck[1:2] // M1.W.1: consumes the edit's dirt, refreshes only itself
			if rep, err := ses.Check(ctx, one); err != nil {
				t.Fatal(err)
			} else if canonJSON(t, rep) != canonJSON(t, coldReport(t, "uart", 0.2, opts, one, edits)) {
				t.Fatalf("%v: single-rule check differs from cold", mode)
			}
			rep, info, err := ses.DeltaCheck(ctx, deck)
			if err != nil {
				t.Fatal(err)
			}
			// The other three M1 rules and the V1-in-M1 enclosure are stale and
			// run in full; M1.W.1 and everything off M1 skip.
			if !info.Planned || info.RulesFull != 4 || info.RulesRestricted != 0 || info.RulesSkipped != len(deck)-4 {
				t.Fatalf("%v: info = %+v", mode, info)
			}
			if canonJSON(t, rep) != canonJSON(t, coldReport(t, "uart", 0.2, opts, deck, edits)) {
				t.Fatalf("%v: delta check after a single-rule check differs from cold", mode)
			}
		}
	})
}

// TestInvalidateZeroRegionsLockFree pins the documented fast path: with no
// regions, Invalidate returns immediately without taking the session lock,
// even while a (simulated) check holds it.
func TestInvalidateZeroRegionsLockFree(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(lo, Options{})
	ses.mu <- struct{}{} // a check holds the session lock
	defer func() { <-ses.mu }()
	done := make(chan error, 1)
	go func() { done <- ses.Invalidate(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("zero-region Invalidate = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("zero-region Invalidate blocked on the session lock")
	}
}

// TestInvalidateWholeLayerRegion pins the degenerate region: no rects means
// the whole layer is dirty, so its rules re-run in full while the rest skip —
// and the unedited layout reproduces the baseline bytes.
func TestInvalidateWholeLayerRegion(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	base, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Invalidate(ctx, LayerRegion{Layer: layout.LayerM1}); err != nil {
		t.Fatal(err)
	}
	rep, info, err := ses.DeltaCheck(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Planned || info.RulesFull != 5 || info.RulesRestricted != 0 || info.RulesSkipped != len(deck)-5 {
		t.Fatalf("plan = %+v", info)
	}
	if rep.Stats.FlattenCacheMisses == 0 || rep.Stats.DeviceUploads == 0 {
		t.Fatalf("whole-layer region did not force recomputation: %+v", rep.Stats)
	}
	if canonJSON(t, rep) != canonJSON(t, base) {
		t.Fatal("whole-layer delta differs from baseline on an unedited layout")
	}
}

// TestDeltaEmptyIntersectionEdit pins the empty-intersection case from the
// issue: an edit whose dirty region touches no existing geometry still plans,
// requeries only its own band, and changes exactly the violations the new
// geometry introduces.
func TestDeltaEmptyIntersectionEdit(t *testing.T) {
	lo := bandedCoreLayout(t, 8)
	deck := rules.Deck{
		rules.Layer(layout.LayerM1).Spacing().AtLeast(12).Named("S.1"),
		rules.Layer(layout.LayerM1).Width().AtLeast(10).Named("W.1"),
	}
	ctx := context.Background()
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	base, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(base.Violations); n != 0 {
		t.Fatalf("clean fixture has %d violations", n)
	}
	// A clean insert far from everything (gap between bands, wide enough, far
	// from neighbors): the delta plans, and the report stays empty.
	edits := []layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM1,
		Rect: geom.R(1000, 2400, 1100, 2500)}}
	if _, err := ses.Edit(ctx, edits); err != nil {
		t.Fatal(err)
	}
	rep, info, err := ses.DeltaCheck(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Planned || info.RulesRestricted != 2 {
		t.Fatalf("plan = %+v", info)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean insert produced %d violations", len(rep.Violations))
	}
	if rep.Stats.DeviceUploads != 0 || rep.Stats.BytesCopied >= base.Stats.BytesCopied {
		t.Fatalf("delta check: %d uploads, %d bytes copied (cold check copied %d)",
			rep.Stats.DeviceUploads, rep.Stats.BytesCopied, base.Stats.BytesCopied)
	}
	// At the next plain check the patch displaces nothing and appends the
	// new polygon; the layer's resident buffer is uploaded again, whole.
	plain, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.DeviceUploads != 1 {
		t.Fatalf("insert outside every row: %d uploads, want the patched layer's one", plain.Stats.DeviceUploads)
	}
	if len(plain.Violations) != 0 {
		t.Fatalf("clean insert produced %d violations in the plain check", len(plain.Violations))
	}
	var buf bytes.Buffer
	if err := rep.WriteCanonicalJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := func() *Report {
		flo := bandedCoreLayout(t, 8)
		if _, err := flo.ApplyEdits(edits); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Mode: Parallel})
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		rep, err := e.CheckContext(ctx, flo)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	if buf.String() != canonJSON(t, want) {
		t.Fatal("empty-intersection delta differs from cold check")
	}
}

// TestWindowPolysMatchLayerScan pins a restricted run's polygons — the
// union of the hierarchy range queries over its work rects — to the layer
// scan they replace: every flattened polygon whose box meets a work rect
// under nearWork's Overlaps, each exactly once. The banded fixture adds rects
// that only touch a polygon's edge (kept: Overlaps is closed), miss one by a
// unit (dropped), and overlap each other over one polygon (listed once).
func TestWindowPolysMatchLayerScan(t *testing.T) {
	type fixture struct {
		name  string
		load  func() *layout.Layout
		extra []geom.Rect
	}
	fixtures := []fixture{{"banded", func() *layout.Layout { return bandedCoreLayout(t, 8) }, []geom.Rect{
		geom.R(0, 5100, 50, 5150),     // touches band 5's top edge
		geom.R(401, 1000, 500, 1050),  // one unit right of band 1
		geom.R(400, 2050, 450, 2060),  // touches band 2's right edge
		geom.R(-10, 3000, 100, 3050),  // these two overlap each other
		geom.R(50, 3020, 200, 3200),   // and band 3
		geom.R(-100, 4101, 900, 4200), // one unit above band 4
	}}}
	for _, name := range []string{"uart", "ethmac"} {
		fixtures = append(fixtures, fixture{name: name, load: func() *layout.Layout {
			lo, _, err := synth.Load(name, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			return lo
		}})
	}
	const reach = synth.MinSpaceM1
	type key struct {
		src   layout.PolyRef
		trans geom.Transform
	}
	for _, f := range fixtures {
		lo := f.load()
		dirty, err := lo.ApplyEdits(deltaTestEdits(lo))
		if err != nil {
			t.Fatal(err)
		}
		rp := &rulePlan{mode: planRestrict, work: f.extra}
		for _, d := range dirty {
			for _, r := range d.Rects {
				rp.work = append(rp.work, r.Expand(2*reach))
			}
		}
		want := map[key]bool{}
		for _, pp := range lo.FlattenLayer(layout.LayerM1) {
			if rp.nearWork(pp.Shape.MBR()) {
				want[key{pp.Src, pp.Trans}] = true
			}
		}
		got, boxes := rp.windowPolys(lo, layout.LayerM1)
		seen := map[key]bool{}
		for i, pp := range got {
			k := key{pp.Src, pp.Trans}
			if seen[k] {
				t.Fatalf("%s: polygon %v listed twice", f.name, pp.Shape.MBR())
			}
			seen[k] = true
			if !want[k] || boxes[i] != pp.Shape.MBR() {
				t.Fatalf("%s: window returned %v, which the layer scan does not", f.name, pp.Shape.MBR())
			}
		}
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d polygons from the window queries, %d from the layer scan", f.name, len(got), len(want))
		}
		if f.name == "banded" {
			// Bands 2, 3 and 5 by the extra rects (the edits delete band 0).
			for _, y := range []int64{2000, 3000, 5000} {
				if !want[key{layout.PolyRef{Cell: lo.Top, Idx: int(y / 1000)}, geom.Identity()}] {
					t.Fatalf("band at y=%d not in the window", y)
				}
			}
			for _, y := range []int64{1000, 4000} {
				if want[key{layout.PolyRef{Cell: lo.Top, Idx: int(y / 1000)}, geom.Identity()}] {
					t.Fatalf("band at y=%d, a unit off every rect, in the window", y)
				}
			}
		}
	}
}

// partialFixture is a flat M1 layout: a 100 × 60 rect at the origin, a
// 50 × 50 rect (area 2 500) at x = 1000, and a long bar far above both.
func partialFixture(t *testing.T) *layout.Layout {
	t.Helper()
	top := &gdsii.Structure{Name: "TOP"}
	for _, r := range []geom.Rect{geom.R(0, 0, 100, 60), geom.R(1000, 0, 1050, 50), geom.R(0, 2000, 400, 2100)} {
		top.Boundaries = append(top.Boundaries, gdsii.Boundary{Layer: int16(layout.LayerM1), XY: []geom.Point{
			geom.Pt(r.XLo, r.YLo), geom.Pt(r.XLo, r.YHi), geom.Pt(r.XHi, r.YHi), geom.Pt(r.XHi, r.YLo)}})
	}
	lo, err := layout.FromLibrary(&gdsii.Library{Name: "partial", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{top}})
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestInvalidatePartialPolygon: a layout mutated behind the session's back
// and invalidated over only the edges that changed. Trimming the 100 × 60
// rect to 70 × 60 (area 4 200 < 5 000) and invalidating the 30 × 60 strip it
// lost gives it an area marker — its whole new box — outside the strip;
// deleting the 50 × 50 rect and invalidating a 1-wide strip along each of
// its four edges leaves its recorded area marker's center outside the
// strips. Invalidate widens the rects to both boxes, so the delta check
// equals a cold check, in both modes.
func TestInvalidatePartialPolygon(t *testing.T) {
	deck := rules.Deck{
		rules.Layer(layout.LayerM1).Area().AtLeast(5000).Named("A.1"),
		rules.Layer(layout.LayerM1).Spacing().AtLeast(12).Named("S.1"),
		rules.Layer(layout.LayerM1).Width().AtLeast(10).Named("W.1"),
	}
	cases := []struct {
		name  string
		edits []layout.Edit
		dirty []geom.Rect
	}{
		{"trim", []layout.Edit{
			{Op: layout.OpDeleteRegion, Layer: layout.LayerM1, Rect: geom.R(0, 0, 100, 60)},
			{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: geom.R(0, 0, 70, 60)},
		}, []geom.Rect{geom.R(70, 0, 100, 60)}},
		{"delete", []layout.Edit{
			{Op: layout.OpDeleteRegion, Layer: layout.LayerM1, Rect: geom.R(1000, 0, 1050, 50)},
		}, []geom.Rect{geom.R(1000, 0, 1050, 1), geom.R(1000, 49, 1050, 50), geom.R(1000, 0, 1001, 50), geom.R(1049, 0, 1050, 50)}},
	}
	ctx := context.Background()
	for _, c := range cases {
		for _, mode := range []Mode{Sequential, Parallel} {
			t.Run(fmt.Sprintf("%s/%v", c.name, mode), func(t *testing.T) {
				opts := Options{Mode: mode}
				lo := partialFixture(t)
				ses := NewSession(lo, opts)
				defer ses.Close(ctx)
				if _, err := ses.Check(ctx, deck); err != nil {
					t.Fatal(err)
				}
				if _, err := lo.ApplyEdits(c.edits); err != nil {
					t.Fatal(err)
				}
				if err := ses.Invalidate(ctx, LayerRegion{Layer: layout.LayerM1, Rects: c.dirty}); err != nil {
					t.Fatal(err)
				}
				rep, info, err := ses.DeltaCheck(ctx, deck)
				if err != nil {
					t.Fatal(err)
				}
				if !info.Planned || info.RulesRestricted != len(deck) {
					t.Fatalf("plan = %+v, want every rule restricted", info)
				}
				cold := partialFixture(t)
				if _, err := cold.ApplyEdits(c.edits); err != nil {
					t.Fatal(err)
				}
				e := New(opts)
				if err := e.AddRules(deck...); err != nil {
					t.Fatal(err)
				}
				want, err := e.CheckContext(ctx, cold)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := canonJSON(t, rep), canonJSON(t, want); got != want {
					t.Fatalf("delta check differs from a cold check:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
