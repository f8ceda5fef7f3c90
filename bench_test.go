// Benchmarks regenerating the paper's tables and figures as testing.B
// targets. Each sub-benchmark is one table cell: a (design, rule, checker)
// triple; the reported ns/op is the cell's runtime (for GPU checkers the
// *measured* host work dominates ns/op — the modeled device time appears in
// the `modeled_us` metric). Designs run at a reduced scale so the whole
// suite completes on a laptop; `cmd/odrc-bench` runs the full-scale tables.
package opendrc_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"opendrc/internal/bench"
	"opendrc/internal/core"
	"opendrc/internal/faults"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

const benchScale = 0.25

var (
	layoutsOnce sync.Once
	layoutsMap  map[string]*layout.Layout
)

func benchLayouts(b *testing.B) map[string]*layout.Layout {
	b.Helper()
	layoutsOnce.Do(func() {
		m, err := bench.Layouts(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		layoutsMap = m
	})
	return layoutsMap
}

// runTable executes every (design, rule, checker) cell of one table as
// sub-benchmarks.
func runTable(b *testing.B, ruleIDs []string) {
	layouts := benchLayouts(b)
	for _, design := range bench.DesignNames() {
		lo := layouts[design]
		for _, id := range ruleIDs {
			r, err := synth.RuleByID(id)
			if err != nil {
				b.Fatal(err)
			}
			for c := bench.KLayoutFlat; c <= bench.OpenDRCPar; c++ {
				name := design + "/" + id + "/" + c.String()
				checker := c
				b.Run(name, func(b *testing.B) {
					var modeled float64
					for i := 0; i < b.N; i++ {
						cell, err := bench.RunCellContext(context.Background(), lo, r, checker)
						if err != nil {
							b.Fatal(err)
						}
						if !cell.Supported {
							b.Skip("rule unsupported by checker")
						}
						modeled = float64(cell.Time.Microseconds())
					}
					b.ReportMetric(modeled, "modeled_us")
				})
			}
		}
	}
}

// BenchmarkTableI regenerates Table I: intra-polygon checks (width, area).
func BenchmarkTableI(b *testing.B) {
	runTable(b, bench.TableIRules())
}

// BenchmarkTableII regenerates Table II: inter-polygon checks (spacing,
// enclosure).
func BenchmarkTableII(b *testing.B) {
	runTable(b, bench.TableIIRules())
}

// BenchmarkFig4 profiles the sequential space check per design — the Fig. 4
// runtime breakdown; phase fractions are reported as metrics.
func BenchmarkFig4(b *testing.B) {
	layouts := benchLayouts(b)
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		b.Fatal(err)
	}
	for _, design := range bench.DesignNames() {
		lo := layouts[design]
		b.Run(design, func(b *testing.B) {
			var part, sweep, edge float64
			for i := 0; i < b.N; i++ {
				eng := core.New(core.Options{Mode: core.Sequential})
				if err := eng.AddRules(r); err != nil {
					b.Fatal(err)
				}
				rep, err := eng.CheckContext(context.Background(), lo)
				if err != nil {
					b.Fatal(err)
				}
				total := float64(rep.Profile.Total())
				if total > 0 {
					part = float64(rep.Profile.Get("spacing:partition")) / total * 100
					sweep = float64(rep.Profile.Get("spacing:sweepline")) / total * 100
					edge = float64(rep.Profile.Get("spacing:edge-checks")) / total * 100
				}
			}
			b.ReportMetric(part, "partition_%")
			b.ReportMetric(sweep, "sweepline_%")
			b.ReportMetric(edge, "edgecheck_%")
		})
	}
}

// BenchmarkPartitionAblation compares the paper's Θ(k+N) pigeonhole interval
// merging against the Ω(k log k) sort-based alternative on a large merge
// workload (k ≫ N, the regime the paper argues from).
func BenchmarkPartitionAblation(b *testing.B) {
	const k = 200000
	const rows = 400
	boxes := make([]geom.Rect, k)
	for i := range boxes {
		y := int64((i % rows) * 270)
		x := int64(i) * 7 % 100000
		boxes[i] = geom.R(x, y+40, x+120, y+230)
	}
	b.Run("pigeonhole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Rows(boxes, 18, partition.Pigeonhole)
		}
	})
	b.Run("sort-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Rows(boxes, 18, partition.SortBased)
		}
	})
}

// BenchmarkPruningAblation measures hierarchy task pruning: the identical
// rule on the sequential engine and on KLayout flat, the unpruned baseline.
func BenchmarkPruningAblation(b *testing.B) {
	lo := benchLayouts(b)["aes"]
	r, err := synth.RuleByID("M1.W.1")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		checker bench.Checker
	}{
		{"pruning-on", bench.OpenDRCSeq},
		{"pruning-off", bench.KLayoutFlat},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunCellContext(context.Background(), lo, r, cfg.checker); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecutorAblation forces the parallel mode's executor choice both
// ways on a spacing rule.
func BenchmarkExecutorAblation(b *testing.B) {
	lo := benchLayouts(b)["aes"]
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name      string
		threshold int
	}{
		{"all-brute", 1 << 30},
		{"all-sweep", 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				eng := core.New(core.Options{Mode: core.Parallel, BruteEdgeThreshold: cfg.threshold})
				if err := eng.AddRules(r); err != nil {
					b.Fatal(err)
				}
				rep, err := eng.CheckContext(context.Background(), lo)
				if err != nil {
					b.Fatal(err)
				}
				modeled = float64(rep.Modeled.Microseconds())
			}
			b.ReportMetric(modeled, "modeled_us")
		})
	}
}

// BenchmarkBVHAblation measures the layer-wise MBR augmentation: a narrow
// layer range query through the pruned hierarchy versus filtering the
// flattened layer. narrow-window/ethmac@3 issues the enclosure residue's
// via-sized windows against a top cell of ~10⁵ placements and reports the
// hierarchy work per query as counts: a change that silently drops back to
// the linear walk shows as nodes_pruned in the tens of thousands (every
// top-level placement examined and rejected), whatever the clock says.
func BenchmarkBVHAblation(b *testing.B) {
	lo := benchLayouts(b)["ethmac"]
	window := geom.R(1000, 1000, 3000, 3000)
	b.Run("bvh-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo.QueryLayer(layout.LayerM1, window)
		}
	})
	b.Run("flatten-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, pp := range lo.FlattenLayer(layout.LayerM1) {
				if pp.Shape.MBR().Overlaps(window) {
					n++
				}
			}
		}
	})
	b.Run("narrow-window/ethmac@3", func(b *testing.B) {
		lo, _, err := synth.Load("ethmac", 3)
		if err != nil {
			b.Fatal(err)
		}
		vias := lo.FlattenLayer(layout.LayerV1)
		var sum layout.QueryStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			via := vias[i*7919%len(vias)].Shape.MBR()
			_, st := lo.QueryLayer(layout.LayerM1, via.Expand(synth.MinEnclosure))
			sum.NodesVisited += st.NodesVisited
			sum.NodesPruned += st.NodesPruned
			sum.PolysTested += st.PolysTested
		}
		b.ReportMetric(float64(sum.NodesVisited)/float64(b.N), "nodes_visited")
		b.ReportMetric(float64(sum.NodesPruned)/float64(b.N), "nodes_pruned")
		b.ReportMetric(float64(sum.PolysTested)/float64(b.N), "polys_tested")
	})
}

// BenchmarkFlattenLayer measures one full hierarchy flatten per design —
// the unit of work the geometry cache performs once per layer instead of
// once per rule.
func BenchmarkFlattenLayer(b *testing.B) {
	layouts := benchLayouts(b)
	for _, design := range bench.DesignNames() {
		lo := layouts[design]
		b.Run(design, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(lo.FlattenLayer(layout.LayerM1))
			}
			b.ReportMetric(float64(n), "polys")
		})
	}
}

// BenchmarkPack measures packing a flattened layer into the edge buffer —
// what kernels.Pack costs the callers that pack polygons of their own (the
// geometry cache's layers share the flatten's vertex array instead). bytes
// is the modeled device size (52 B per edge); host_B/edge is what Pack
// allocates per edge beyond the PolyStart table: 16 for the one point per
// vertex, plus allocator rounding (about 1 on these small layers), so a
// column creeping back into the host layout shows as 4 or 8 more.
func BenchmarkPack(b *testing.B) {
	layouts := benchLayouts(b)
	for _, design := range bench.DesignNames() {
		lo := layouts[design]
		flat := lo.FlattenLayer(layout.LayerM1)
		shapes := make([]geom.Polygon, len(flat))
		for i := range flat {
			shapes[i] = flat[i].Shape
		}
		b.Run(design, func(b *testing.B) {
			var e *kernels.Edges
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				e = kernels.Pack(shapes)
			}
			runtime.ReadMemStats(&m1)
			perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
			b.ReportMetric(float64(e.Bytes()), "bytes")
			b.ReportMetric((perOp-float64(4*(e.NumPolys()+1)))/float64(e.Len()), "host_B/edge")
		})
	}
}

// BenchmarkEditCycle measures one in-process edit → delta-check cycle on a
// resident parallel session of ethmac@2.5 — the serve_edit workload without
// HTTP. m1-sliver inserts a 9 × 60 sub-min-width M1 rect somewhere new each
// cycle; route inserts an M2 track; via inserts a 14 × 14 V2 square. Every
// rule reading the edited layer runs restricted to the edit's neighbourhood
// — spacing, intra-polygon, custom and enclosure rules alike — so the cost
// should be the neighbourhood's, not the 176 k-polygon M1 layer's, and the
// geometry cache is not patched at all (a delta check reads no layer through
// it): patches/cycle and full/cycle (rules the plan ran in full) read 0.
// ms/cycle, MB/cycle (bytes allocated), copied_B/cycle (modeled
// host-to-device bytes), patches/cycle (region invalidations the cache took)
// and full/cycle are per iteration.
func BenchmarkEditCycle(b *testing.B) {
	lo, _, err := synth.Load("ethmac", 2.5)
	if err != nil {
		b.Fatal(err)
	}
	deck := synth.Deck()
	ctx := context.Background()
	ses := core.NewSession(lo, core.Options{Mode: core.Parallel})
	defer ses.Close(ctx)
	if _, err := ses.Check(ctx, deck); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		layer layout.Layer
		w, h  int64
	}{
		{"m1-sliver", layout.LayerM1, 9, 60},
		{"route", layout.LayerM2, 300, 30},
		{"via", layout.LayerV2, 14, 14},
	}
	for _, c := range cases {
		box := lo.Top.LayerMBR(c.layer)
		var n, copied, full int64
		cycle := func() {
			n++
			x := box.XLo + (n*7919)%(box.Width()-c.w)
			y := box.YLo + (n*104729)%(box.Height()-c.h)
			ed := layout.Edit{Op: layout.OpInsertRect, Layer: c.layer, Rect: geom.R(x, y, x+c.w, y+c.h)}
			if _, err := ses.Edit(ctx, []layout.Edit{ed}); err != nil {
				b.Fatal(err)
			}
			rep, info, err := ses.DeltaCheck(ctx, deck)
			if err != nil || !info.Planned {
				b.Fatalf("delta check: planned=%v err=%v", info.Planned, err)
			}
			copied += rep.Stats.BytesCopied
			full += int64(info.RulesFull)
		}
		patches := func() int64 {
			st, err := ses.StatsSnapshot(ctx)
			if err != nil {
				b.Fatal(err)
			}
			return st.Geocache.SegmentedInvalidations + st.Geocache.FullInvalidations
		}
		b.Run("ethmac@2.5/"+c.name, func(b *testing.B) {
			cycle()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			copied, full = 0, 0
			p0 := patches()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(patches()-p0)/float64(b.N), "patches/cycle")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/cycle")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/1e6, "MB/cycle")
			b.ReportMetric(float64(m1.NumGC-m0.NumGC)/float64(b.N), "GCs/cycle")
			b.ReportMetric(float64(copied)/float64(b.N), "copied_B/cycle")
			b.ReportMetric(float64(full)/float64(b.N), "full/cycle")
		})
	}
}

// BenchmarkWarmCheck measures one warm full-deck check on a resident parallel
// session of ethmac@2.5 — serve_read's operation without HTTP — answered the
// two ways a session can: replayed from the rule records, and executed. The
// executed session carries an inert fault injector, which is one of the
// conditions under which a session keeps no records (core.Session.recordsOff),
// so every check re-runs every rule. modeled_us and launches are the last
// check's: launches must be equal on both sides, modeled_us differs by the
// host phases a replay does not execute.
func BenchmarkWarmCheck(b *testing.B) {
	lo, _, err := synth.Load("ethmac", 2.5)
	if err != nil {
		b.Fatal(err)
	}
	deck := synth.Deck()
	ctx := context.Background()
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"executed", core.Options{Mode: core.Parallel, Faults: faults.New(1)}},
		{"replayed", core.Options{Mode: core.Parallel}},
	} {
		b.Run("ethmac@2.5/"+c.name, func(b *testing.B) {
			ses := core.NewSession(lo, c.opts)
			defer ses.Close(ctx)
			if _, err := ses.Check(ctx, deck); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				if rep, err = ses.Check(ctx, deck); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Modeled.Microseconds()), "modeled_us")
			b.ReportMetric(float64(rep.Stats.KernelLaunches), "launches")
		})
	}
}

// replayedSession is a resident parallel session of ethmac@2.5 after its cold
// check: every later full-deck check on it is a replay, as on a warm odrcd
// session.
func replayedSession(tb testing.TB) (*core.Session, rules.Deck) {
	tb.Helper()
	lo, _, err := synth.Load("ethmac", 2.5)
	if err != nil {
		tb.Fatal(err)
	}
	deck := synth.Deck()
	ctx := context.Background()
	ses := core.NewSession(lo, core.Options{Mode: core.Parallel})
	tb.Cleanup(func() { ses.Close(ctx) })
	if _, err := ses.Check(ctx, deck); err != nil {
		tb.Fatal(err)
	}
	return ses, deck
}

// BenchmarkReplayedRequest measures serve_read's request in process, without
// HTTP: a replayed full-deck check of ethmac@2.5, the default dedup (on a
// copy, as odrcd does) and the canonical encode into a reused buffer. bytes
// is the encoded report's size.
func BenchmarkReplayedRequest(b *testing.B) {
	ses, deck := replayedSession(b)
	ctx := context.Background()
	b.Run("ethmac@2.5", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := ses.Check(ctx, deck)
			if err != nil {
				b.Fatal(err)
			}
			dd := *rep
			dd.Violations = core.DedupViolations(rep.Violations)
			buf = dd.AppendCanonicalJSON(buf[:0])
		}
		b.ReportMetric(float64(len(buf)), "bytes")
	})
}

// TestCanonicalEncodeAllocs gates the canonical encoder's allocations: the
// 519-violation ethmac@2.5 report rendered into a buffer already large
// enough allocates at most twice (in practice not at all).
func TestCanonicalEncodeAllocs(t *testing.T) {
	ses, deck := replayedSession(t)
	rep, err := ses.Check(context.Background(), deck)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 519 {
		t.Fatalf("the report has %d violations, want ethmac@2.5's 519", len(rep.Violations))
	}
	buf := make([]byte, 0, 2*len(rep.AppendCanonicalJSON(nil)))
	if n := testing.AllocsPerRun(20, func() { buf = rep.AppendCanonicalJSON(buf[:0]) }); n > 2 {
		t.Fatalf("canonical encode into a pre-sized buffer: %v allocs, want <= 2", n)
	}
}

// BenchmarkSpacingSweepRow measures the host cost of simulating the
// sweepline executor on one partition row past the engine's 4096-edge
// executor cutoff (the widest M1 row of ethmac@3), on warm scratch as the
// engine's row loop runs it. modeled_us is the device time the cost model
// charges the row's seven launches: it must not move when the simulation
// gets faster. window_ops is the sweep-check candidates the device threads
// scan (and are charged), visited the ones the simulation took from its
// candidate index and prescreened to find the same hits; the gap between
// them is what the index saves.
func BenchmarkSpacingSweepRow(b *testing.B) {
	lo, _, err := synth.Load("ethmac", 3)
	if err != nil {
		b.Fatal(err)
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		b.Fatal(err)
	}
	lim := r.SpacingLimit()
	flat := lo.FlattenLayer(layout.LayerM1)
	shapes := make([]geom.Polygon, len(flat))
	boxes := make([]geom.Rect, len(flat))
	for i := range flat {
		shapes[i] = flat[i].Shape
		boxes[i] = shapes[i].MBR()
	}
	edges := kernels.Pack(shapes)
	var members []int32
	widest := 0
	for _, row := range partition.Rows(boxes, lim.Reach(), partition.Pigeonhole) {
		n := 0
		for _, m := range row.Members {
			elo, ehi := edges.PolyEdges(m)
			n += ehi - elo
		}
		if n > widest {
			widest = n
			members = members[:0]
			for _, m := range row.Members {
				members = append(members, int32(m))
			}
		}
	}
	if widest <= 4096 {
		b.Fatalf("widest M1 row has %d edges; the benchmark needs a sweepline-side row", widest)
	}
	var sc kernels.Scratch
	var tape gpu.Tape
	hits := 0
	count := func(kernels.Hit) { hits++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset(gpu.GTX1660Ti())
		hits = 0
		sc.SweepPolys(&tape, edges, members, lim, kernels.FilterSpacing, count)
	}
	b.StopTimer()
	dev := gpu.NewDevice(gpu.GTX1660Ti())
	s := dev.NewStream("row")
	s.Replay(&tape, nil, nil)
	s.Synchronize()
	b.ReportMetric(float64(dev.DeviceBusy().Nanoseconds())/1e3, "modeled_us")
	b.ReportMetric(float64(widest), "edges")
	b.ReportMetric(float64(hits), "hits")
	window, visited := sc.Candidates()
	b.ReportMetric(float64(window), "window_ops/op")
	b.ReportMetric(float64(visited), "visited/op")
}

// BenchmarkIngest measures the path from GDSII bytes to a queryable
// hierarchy on the batch benchmark's input (ethmac@4, ~6.3 MB): read decodes
// the serialised library (MB/s is file bytes over decode time), build is
// layout.FromLibrary on the decoded library, and index is the first narrow
// query on every layer of a fresh layout — the one that bulk-loads the top
// cell's spatial index. allocs/op is where a per-element or per-reference
// allocation creeping back in shows.
func BenchmarkIngest(b *testing.B) {
	p, err := synth.Design("ethmac")
	if err != nil {
		b.Fatal(err)
	}
	gen, _ := p.Scaled(4).Generate()
	var file bytes.Buffer
	if err := gdsii.NewWriter(&file).WriteLibrary(gen); err != nil {
		b.Fatal(err)
	}
	lib, err := gdsii.Read(bytes.NewReader(file.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ethmac@4/read", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gdsii.Read(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ethmac@4/build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := layout.FromLibrary(lib); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ethmac@4/index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			lo, err := layout.FromLibrary(lib)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, l := range lo.Layers() {
				ext := lo.Top.LayerMBR(l)
				lo.QueryLayer(l, geom.R(ext.XLo, ext.YLo, ext.XLo+1, ext.YLo+1))
			}
		}
	})
}

// TestIngestAllocs gates the ingest path's allocation behaviour where it
// repeats exactly — in counts, not times. The reader may allocate a small
// constant per structure (its element slices, point slab and text slab) and
// the build a small constant per cell (its slices, vertex slab and layer
// table), both independent of how many elements the structures hold: ethmac
// at scale 2 has about twice the polygons and references of scale 1 in the
// same cells, and must cost the same allocations give or take a table's
// regrowth.
func TestIngestAllocs(t *testing.T) {
	p, err := synth.Design("ethmac")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(scale float64) (read, build float64, lib *gdsii.Library) {
		gen, _ := p.Scaled(scale).Generate()
		var file bytes.Buffer
		if err := gdsii.NewWriter(&file).WriteLibrary(gen); err != nil {
			t.Fatal(err)
		}
		read = testing.AllocsPerRun(3, func() {
			if lib, err = gdsii.Read(bytes.NewReader(file.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		build = testing.AllocsPerRun(3, func() {
			if _, err := layout.FromLibrary(lib); err != nil {
				t.Fatal(err)
			}
		})
		return read, build, lib
	}
	read1, build1, lib1 := measure(1)
	read2, build2, lib2 := measure(2)
	if len(lib1.Structures) != len(lib2.Structures) {
		t.Fatalf("scales 1 and 2 have %d and %d structures; the comparison needs them equal", len(lib1.Structures), len(lib2.Structures))
	}
	elements := func(lib *gdsii.Library) (n int) {
		for _, st := range lib.Structures {
			n += st.NumElements()
		}
		return n
	}
	cells := float64(len(lib1.Structures))
	t.Logf("%v structures; scale 1: %d elements, %v read + %v build allocs; scale 2: %d elements, %v + %v",
		cells, elements(lib1), read1, build1, elements(lib2), read2, build2)
	// Measured: 178 read and 282 build allocations for 39 structures, 257
	// and 325 under the race detector.
	if read1 > 8*cells+16 || build1 > 10*cells+32 {
		t.Errorf("scale 1 ingest allocates %v (read) + %v (build) times for %v structures: more than a small constant each", read1, build1, cells)
	}
	if read2 > read1+8 || build2 > build1+8 {
		t.Errorf("allocations grew with the element count: read %v -> %v, build %v -> %v", read1, read2, build1, build2)
	}
}
