package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/kernels"
	"opendrc/internal/klayout"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// The geometry-cache suite: the cross-rule cache, device residency, and the
// prefetch pipeline change cost, never results. Reports must match an
// uncached reference and be bit-identical across worker counts, and a fault
// on a cached computation must degrade exactly the rules sharing that
// layer.

// reuseTestDeck is a multi-rule spacing deck exercising cross-rule reuse:
// two layers, each with a base rule and a projection-conditioned variant.
func reuseTestDeck() rules.Deck {
	return rules.Deck{
		rules.Layer(layout.LayerM1).Spacing().AtLeast(synth.MinSpaceM1).Named("GC.M1.base"),
		rules.Layer(layout.LayerM1).Spacing().AtLeast(synth.MinSpaceM1).
			WhenProjectionAtLeast(2*synth.MinSpaceM1, synth.MinSpaceM1+synth.MinSpaceM1/2).Named("GC.M1.prl"),
		rules.Layer(layout.LayerM2).Spacing().AtLeast(synth.MinSpaceM2).Named("GC.M2.base"),
		rules.Layer(layout.LayerM2).Spacing().AtLeast(synth.MinSpaceM2).
			WhenProjectionAtLeast(2*synth.MinSpaceM2, synth.MinSpaceM2+synth.MinSpaceM2/2).Named("GC.M2.prl"),
	}
}

func checkWith(t *testing.T, lo *layout.Layout, deck rules.Deck, opts Options) *Report {
	t.Helper()
	e := New(opts)
	if err := e.AddRules(deck...); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Check(lo)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGeoCacheIdentityMatrix checks every synth design in both modes against
// an independent reference that shares no geometry code path with the cache:
// the KLayout flat baseline, which flattens straight from the hierarchy. The
// deduplicated violations of every run equal the baseline's, and per mode the
// scheduling counters are identical across worker counts.
func TestGeoCacheIdentityMatrix(t *testing.T) {
	for _, profile := range synth.Designs() {
		design := profile.Name
		lo, _, err := synth.Load(design, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		var flat []rules.Violation
		for _, r := range reuseTestDeck() {
			res, err := klayout.CheckContext(context.Background(), lo, r, klayout.Options{Mode: klayout.Flat})
			if err != nil {
				t.Fatal(err)
			}
			flat = append(flat, res.Violations...)
		}
		want := violationKeys(flat)
		if len(want) == 0 {
			t.Errorf("%s: flat reference found no violations; matrix is vacuous", design)
		}
		for _, mode := range []Mode{Sequential, Parallel} {
			var stats []Stats
			for _, workers := range []int{1, 4} {
				rep := checkWith(t, lo, reuseTestDeck(), Options{Mode: mode, Workers: workers})
				if got := violationKeys(rep.Violations); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v workers=%d: %d deduplicated violations, flat reference %d",
						design, mode, workers, len(got), len(want))
				}
				stats = append(stats, rep.Stats)
			}
			if stats[0] != stats[1] {
				t.Errorf("%s %v: stats differ across worker counts:\n  w1=%+v\n  wN=%+v",
					design, mode, stats[0], stats[1])
			}
		}
	}
}

// TestGeoCacheCounters checks the deterministic counter contract on a known
// deck: misses equal distinct layers, uploads happen once per layer, and
// later rules reuse the resident buffer.
func TestGeoCacheCounters(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rep := checkWith(t, lo, reuseTestDeck(), Options{Mode: Parallel})
	s := rep.Stats
	if s.FlattenCacheMisses != 2 {
		t.Errorf("FlattenCacheMisses = %d, want 2 (two distinct layers)", s.FlattenCacheMisses)
	}
	if s.PackCacheMisses != 2 {
		t.Errorf("PackCacheMisses = %d, want 2", s.PackCacheMisses)
	}
	if s.FlattenCacheHits == 0 || s.PackCacheHits == 0 {
		t.Errorf("no cache hits on a 4-rule 2-layer deck: %+v", s)
	}
	if s.DeviceUploads != 2 {
		t.Errorf("DeviceUploads = %d, want 2", s.DeviceUploads)
	}
	if s.DeviceReuses != 2 {
		t.Errorf("DeviceReuses = %d, want 2 (second rule per layer)", s.DeviceReuses)
	}
	if s.DeviceEvictions != 0 {
		t.Errorf("DeviceEvictions = %d on an unlimited pool", s.DeviceEvictions)
	}
}

// TestChaosFlattenFaultScopedToLayer injects an error into the cached
// flatten of M1 and demands that exactly the rules sharing M1 degrade — the
// cached error must not leak into M2's rules, and the degradation must be
// identical across worker counts.
func TestChaosFlattenFaultScopedToLayer(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	key := "layer#" + strconv.Itoa(int(layout.LayerM1))
	var fp string
	for _, workers := range []int{1, 4} {
		inj := faults.New(1, faults.Injection{Site: faults.SiteFlatten, Key: key, Mode: faults.Error})
		rep := checkWith(t, lo, reuseTestDeck(), Options{Mode: Parallel, Workers: workers, Faults: inj})
		if !rep.Degraded {
			t.Fatal("injected flatten fault degraded nothing")
		}
		failed := map[string]bool{}
		for _, f := range rep.Failures {
			failed[f.Rule] = true
		}
		if !failed["GC.M1.base"] || !failed["GC.M1.prl"] || len(failed) != 2 {
			t.Errorf("workers=%d: failed rules %v, want exactly the two M1 rules", workers, failed)
		}
		m2 := 0
		for _, v := range rep.Violations {
			switch v.Layer {
			case layout.LayerM1:
				t.Fatalf("workers=%d: failed M1 rules still produced violations", workers)
			case layout.LayerM2:
				m2++
			}
		}
		if m2 == 0 {
			t.Errorf("workers=%d: M2 rules found nothing; fault leaked across layers", workers)
		}
		if fp == "" {
			fp = failureFingerprint(rep.Failures)
		} else if got := failureFingerprint(rep.Failures); got != fp {
			t.Errorf("workers=%d: failure fingerprint differs:\n%s\nvs\n%s", workers, got, fp)
		}
	}
}

// TestLRUEvictionReuploadIdentical sizes the device pool so only one
// layer's buffer fits at a time: an alternating-layer deck then forces
// evictions and re-uploads, and the report must still match the unlimited
// run exactly.
func TestLRUEvictionReuploadIdentical(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate layers so each rule needs the buffer the previous rule's
	// neighbor may have evicted.
	deck := rules.Deck{
		rules.Layer(layout.LayerM1).Spacing().AtLeast(synth.MinSpaceM1).Named("EV.M1.a"),
		rules.Layer(layout.LayerM2).Spacing().AtLeast(synth.MinSpaceM2).Named("EV.M2.a"),
		rules.Layer(layout.LayerM1).Spacing().AtLeast(synth.MinSpaceM1).
			WhenProjectionAtLeast(2*synth.MinSpaceM1, synth.MinSpaceM1+1).Named("EV.M1.b"),
		rules.Layer(layout.LayerM2).Spacing().AtLeast(synth.MinSpaceM2).
			WhenProjectionAtLeast(2*synth.MinSpaceM2, synth.MinSpaceM2+1).Named("EV.M2.b"),
	}
	b1 := kernels.Pack(shapesOf(lo, layout.LayerM1)).Bytes()
	b2 := kernels.Pack(shapesOf(lo, layout.LayerM2)).Bytes()
	limit := b1 + b2 - 1 // either buffer alone fits; both together never do

	free := checkWith(t, lo, deck, Options{Mode: Parallel})
	if free.Stats.DeviceEvictions != 0 {
		t.Fatalf("unlimited run evicted %d buffers", free.Stats.DeviceEvictions)
	}
	tight := checkWith(t, lo, deck, Options{Mode: Parallel,
		Budgets: budget.Limits{MaxDeviceBytes: limit}})
	if tight.Degraded {
		t.Fatalf("pool pressure degraded rules instead of evicting: %+v", tight.Failures)
	}
	if tight.Stats.DeviceEvictions == 0 {
		t.Fatal("alternating deck under a one-buffer pool evicted nothing")
	}
	if tight.Stats.DeviceUploads != tight.Stats.DeviceEvictions+1 {
		t.Errorf("uploads = %d, evictions = %d; every eviction but the last should force a re-upload",
			tight.Stats.DeviceUploads, tight.Stats.DeviceEvictions)
	}
	if !reflect.DeepEqual(free.Violations, tight.Violations) {
		t.Error("eviction/re-upload changed the violations")
	}
}

func shapesOf(lo *layout.Layout, l layout.Layer) []geom.Polygon {
	flat := lo.FlattenLayer(l)
	out := make([]geom.Polygon, len(flat))
	for i := range flat {
		out[i] = flat[i].Shape
	}
	return out
}

// TestPrefetchWarmsOnlyReadTables pins that the prefetch builds a layer's MBR
// table only where a row will read it. With every row over the executor
// cutoff the rows all take the sweepline and no table is built at all; with
// the cutoff raised so that they all go brute, each spacing layer builds its
// table exactly once. The canonical reports are equal either way.
func TestPrefetchWarmsOnlyReadTables(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cutoff int) (tableMisses int, rep *Report) {
		rec := trace.New()
		rep = runEngine(t, lo, Options{Mode: Parallel, BruteEdgeThreshold: cutoff, Trace: rec}, reuseTestDeck())
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		for _, ev := range doc.TraceEvents {
			if strings.HasPrefix(ev.Name, "table:") && ev.Args["result"] == "miss" {
				tableMisses++
			}
		}
		return tableMisses, rep
	}
	sweepMisses, sweep := run(1)
	bruteMisses, brute := run(1 << 30)
	if sweep.Stats.Rows == 0 || sweep.Stats.PairsConsidered != 0 || brute.Stats.PairsConsidered == 0 {
		t.Fatalf("rows %d, pairs considered %d (sweep) and %d (brute): the cutoffs did not split the executors",
			sweep.Stats.Rows, sweep.Stats.PairsConsidered, brute.Stats.PairsConsidered)
	}
	if sweepMisses != 0 {
		t.Errorf("all rows on the sweepline built %d MBR tables, want 0", sweepMisses)
	}
	if layers := 2; bruteMisses != layers {
		t.Errorf("all rows brute built %d MBR tables, want one per spacing layer, %d", bruteMisses, layers)
	}
	var a, b bytes.Buffer
	if err := sweep.WriteCanonicalJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := brute.WriteCanonicalJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the canonical reports differ between the executors")
	}
}

// TestParallelBuildsNoInstanceRecords: the parallel engine reads a layer as
// its packed edges and boxes, so no path of it leaves instance records in
// the geometry cache — not a batch check at either worker count, nor a
// session's checks, delta checks, the patches its plain checks make after
// edits, or a check after a partial Invalidate.
func TestParallelBuildsNoInstanceRecords(t *testing.T) {
	ctx := context.Background()
	deck := synth.Deck()
	noRecords := func(what string, rep *Report) {
		t.Helper()
		if rep.HostBytes.Flatten != 0 || rep.HostBytes.Edges == 0 {
			t.Fatalf("%s: geometry cache holds %+v, want edges and no instance records", what, rep.HostBytes)
		}
	}
	for _, workers := range []int{1, 2} {
		lo, _, err := synth.Load("uart", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		noRecords(fmt.Sprintf("batch check, %d workers", workers), checkWith(t, lo, deck, Options{Mode: Parallel, Workers: workers}))
	}

	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	rep, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	noRecords("first session check", rep)
	if _, err := ses.Edit(ctx, deltaTestEdits(lo)); err != nil {
		t.Fatal(err)
	}
	rep, _, err = ses.DeltaCheck(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	noRecords("delta check", rep)
	if rep, err = ses.Check(ctx, deck); err != nil {
		t.Fatal(err)
	}
	noRecords("plain check after edits", rep)
	m2 := lo.Top.LayerMBR(layout.LayerM2)
	if err := ses.Invalidate(ctx, LayerRegion{Layer: layout.LayerM2, Rects: []geom.Rect{
		geom.R(m2.XLo, m2.YLo, m2.XLo+200, m2.YLo+200)}}); err != nil {
		t.Fatal(err)
	}
	if rep, err = ses.Check(ctx, deck); err != nil {
		t.Fatal(err)
	}
	noRecords("plain check after Invalidate", rep)
	st, err := ses.StatsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Geocache.SegmentedInvalidations < 2 {
		t.Fatalf("the session patched %d layer records, want the M1 and M2 ones: %+v", st.Geocache.SegmentedInvalidations, st.Geocache)
	}
}

// TestPatchSegmentsAtReadersReach: a session's patch segments each layer at
// the largest reach among the rules that read it through the cache, so after
// an edit and a plain check the session's geometry cache holds exactly the
// row partitions — by key and by bytes — that a cold check of the edited
// layout holds: none at the deck's maximum reach on a layer no rule reads at
// that reach.
func TestPatchSegmentsAtReadersReach(t *testing.T) {
	ctx := context.Background()
	deck := synth.Deck()
	load := func() *layout.Layout {
		lo, _, err := synth.Load("ethmac", 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return lo
	}
	lo := load()
	edits := append(deltaTestEdits(lo), m2Segment(lo)...)
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	if _, err := ses.Check(ctx, deck); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Edit(ctx, edits); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Check(ctx, deck); err != nil {
		t.Fatal(err)
	}
	// M1 is patched by row; M2's routes span its one row, so it is dropped.
	if st := ses.geo.Stats(); st.SegmentedInvalidations != 1 || st.FullInvalidations != 1 {
		t.Fatalf("the plain check did not patch M1 by row and drop M2: %+v", st)
	}

	clo := load()
	if _, err := clo.ApplyEdits(edits); err != nil {
		t.Fatal(err)
	}
	cold := NewSession(clo, Options{Mode: Parallel})
	defer cold.Close(ctx)
	if _, err := cold.Check(ctx, deck); err != nil {
		t.Fatal(err)
	}
	if got, want := ses.geo.Resident().Rows, cold.geo.Resident().Rows; got != want {
		t.Fatalf("session's partitions hold %d B, a cold check's %d B", got, want)
	}

	// The partition keys held, probed by lookup: a hit is a held key.
	guards := []int64{deck.MaxReach()}
	for _, r := range deck {
		if r.Kind == rules.Spacing {
			guards = append(guards, r.SpacingLimit().Reach())
		}
	}
	held := func(s *Session) []string {
		var keys []string
		for _, l := range []layout.Layer{layout.LayerM1, layout.LayerM2, layout.LayerM3} {
			for _, g := range guards {
				hit := false
				s.geo.SetEventHook(func(ev geocache.Event) { hit = ev.Hit })
				if _, err := s.geo.Rows(ctx, s.lo, l, g, partition.Pigeonhole); err != nil {
					t.Fatal(err)
				}
				if hit {
					keys = append(keys, fmt.Sprintf("%v/%d", l, g))
				}
			}
		}
		return keys
	}
	if got, want := held(ses), held(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("session holds partitions %v, a cold check %v", got, want)
	}
}
