package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"opendrc/internal/budget"
	"opendrc/internal/checks"
	"opendrc/internal/core"
	"opendrc/internal/gdsii"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/sweep"
	"opendrc/internal/synth"
)

// Standalone layer probes: one call (or a short loop) into each layer's
// public functions on the benchmark's own layout, with fresh caches and a
// fresh simulated device, so each number belongs to exactly one layer. They
// mirror how internal/core drives the layer, at the granularity of one rule.

// bruteEdgeThreshold copies core's executor cutoff (the unexported
// core.defaultBruteEdgeThreshold): partition rows with more packed edges take
// the sweepline executor. A copy can go stale, so parProbes checks the split
// it yields against the engine's own counts (see engineSplit) and fails
// instead of timing a split the engine no longer uses.
const bruteEdgeThreshold = 4096

// splitRows applies the engine's executor selection to a partition.
func splitRows(rows []partition.Row, e *kernels.Edges) (sweepRows, bruteRows [][]int32) {
	for _, row := range rows {
		members := make([]int32, len(row.Members))
		total := 0
		for i, mi := range row.Members {
			members[i] = int32(mi)
			lo, hi := e.PolyEdges(mi)
			total += hi - lo
		}
		if total <= bruteEdgeThreshold {
			bruteRows = append(bruteRows, members)
		} else {
			sweepRows = append(sweepRows, members)
		}
	}
	return sweepRows, bruteRows
}

func discard(kernels.Hit) {}

// engineSplit asks the engine how it split one spacing rule's rows: a
// single-rule parallel check reports the rows it visited and the pairs it
// checked, and only brute-executor rows go through pair discovery, so the
// pair count names the brute side of the split.
func engineSplit(ctx context.Context, lo *layout.Layout, rule rules.Rule) (rows, brutePairs int, err error) {
	eng := core.New(core.Options{Mode: core.Parallel})
	if err := eng.AddRules(rule); err != nil {
		return 0, 0, err
	}
	rep, err := eng.CheckContext(ctx, lo)
	if err != nil {
		return 0, 0, err
	}
	return rep.Stats.Rows, rep.Stats.PairsChecked, nil
}

// parProbes times the layers the parallel mode rests on: cold geocache
// fills, the row partition, edge packing, the host cost of *simulating*
// each kernel family, and the modeled device time those kernels are charged.
func parProbes(ctx context.Context, lo *layout.Layout, m metrics) error {
	m1, err := synth.RuleByID(ruleSpacing)
	if err != nil {
		return err
	}
	lim := m1.SpacingLimit()
	guard := lim.Reach()

	var (
		flat  []layout.PlacedPoly
		edges *kernels.Edges
		rows  []partition.Row
		table *kernels.MBRTable
	)
	cache := geocache.New(budget.Limits{})
	m["geocache.flatten_cold_ms"] = ms(timeIt(func() { flat, err = cache.Flatten(ctx, lo, layout.LayerM1) }))
	if err != nil {
		return err
	}
	m["geocache.pack_cold_ms"] = ms(timeIt(func() { edges, err = cache.Pack(ctx, lo, layout.LayerM1) }))
	if err != nil {
		return err
	}
	m["geocache.rows_ms"] = ms(timeIt(func() { rows, err = cache.Rows(ctx, lo, layout.LayerM1, guard, partition.Pigeonhole) }))
	if err != nil {
		return err
	}
	m["geocache.table_ms"] = ms(timeIt(func() { table, err = cache.Table(ctx, lo, layout.LayerM1) }))
	if err != nil {
		return err
	}
	const hits = 2000
	m["geocache.warm_hit_us"] = us(timeIt(func() {
		for i := 0; i < hits && err == nil; i++ {
			_, err = cache.Flatten(ctx, lo, layout.LayerM1)
		}
	})) / hits
	if err != nil {
		return err
	}

	boxes := make([]geom.Rect, len(flat))
	shapes := make([]geom.Polygon, len(flat))
	for i := range flat {
		shapes[i] = flat[i].Shape
		boxes[i] = shapes[i].MBR()
	}
	var prow []partition.Row
	m["partition.rows_ms"] = ms(timeIt(func() { prow = partition.Rows(boxes, guard, partition.Pigeonhole) }))
	m["partition.rows_count"] = float64(len(prow))

	var packed *kernels.Edges
	m["kernels.pack_ms"] = ms(timeIt(func() { packed = kernels.Pack(shapes) }))
	m["kernels.packed_edges"] = float64(packed.Len())
	m["kernels.packed_bytes"] = float64(packed.Bytes())

	// The engine's executor selection, per partition row: at scale 4 every
	// M1 row exceeds the cutoff and takes the sweepline executor; at scale
	// 2.5 every row is under it and goes through device-side pair discovery
	// and the brute executor. Whichever side is empty reads 0.
	dev := gpu.NewDevice(gpu.GTX1660Ti())
	s := dev.NewStream("probe")
	sweepRows, bruteRows := splitRows(rows, edges)
	var pairs [][2]int32
	if len(sweepRows) > 0 {
		m["kernels.spacing_sweep_host_ms"] = ms(timeIt(func() {
			for _, members := range sweepRows {
				kernels.SpacingSweepPolys(s, edges, members, lim, kernels.FilterSpacing, discard)
			}
		}))
		s.Synchronize()
		m["kernels.spacing_sweep_modeled_us"] = us(dev.DeviceBusy())
	}
	if len(bruteRows) > 0 {
		m["kernels.pair_discovery_host_ms"] = ms(timeIt(func() {
			pairs = kernels.PairDiscoveryTable(s, edges, table, bruteRows, guard)
		}))
		m["kernels.spacing_brute_host_ms"] = ms(timeIt(func() { kernels.SpacingBrute(s, edges, pairs, lim, discard) }))
	}
	engRows, engPairs, err := engineSplit(ctx, lo, m1)
	if err != nil {
		return err
	}
	if engRows != len(rows) || engPairs != len(pairs) {
		return fmt.Errorf("probe split of %s (%d rows: %d sweep, %d brute with %d pairs) is not the engine's (%d rows, %d brute pairs): has core's executor selection changed?",
			ruleSpacing, len(rows), len(sweepRows), len(bruteRows), len(pairs), engRows, engPairs)
	}
	m["kernels.width_host_ms"] = ms(timeIt(func() { kernels.WidthBrute(s, edges, synth.MinWidthM1, discard) }))

	// Enclosure: V1 vias against M1 metal, candidates by MBR overlap.
	vias, err := cache.Flatten(ctx, lo, layout.LayerV1)
	if err != nil {
		return err
	}
	viaEdges, err := cache.Pack(ctx, lo, layout.LayerV1)
	if err != nil {
		return err
	}
	viaBoxes := make([]geom.Rect, len(vias))
	for i := range vias {
		viaBoxes[i] = vias[i].Shape.MBR()
	}
	var cands [][2]int32
	if _, err := sweep.OverlapsBetween(viaBoxes, boxes, func(a, b int) {
		cands = append(cands, [2]int32{int32(a), int32(b)})
	}); err != nil {
		return err
	}
	m["kernels.enclosure_host_ms"] = ms(timeIt(func() {
		kernels.EnclosureKernel(s, viaEdges, edges, cands, synth.MinEnclosure, discard)
	}))

	// Host cost of one launch through the simulator's bookkeeping (a warp of
	// one-op threads): the floor under every modeled kernel.
	const launches = 20000
	ls := gpu.NewDevice(gpu.GTX1660Ti()).NewStream("launch")
	m["gpu.launch_overhead_ns"] = float64(timeIt(func() {
		for i := 0; i < launches; i++ {
			ls.Launch("noop", 32, func(int) int64 { return 1 })
		}
	})) / launches
	return nil
}

// seqProbes times the layers the sequential mode rests on: the MBR
// sweepline, the edge-to-edge checks, and hierarchy range queries.
func seqProbes(lo *layout.Layout, m metrics) error {
	rule, err := synth.RuleByID(ruleSpacing)
	if err != nil {
		return err
	}
	lim := rule.SpacingLimit()
	flat := lo.FlattenLayer(layout.LayerM1)
	boxes := make([]geom.Rect, len(flat))
	for i := range flat {
		boxes[i] = flat[i].Shape.MBR().Expand(lim.Reach())
	}
	var pairs [][2]int32
	var st sweep.Stats
	m["sweep.overlaps_ms"] = ms(timeIt(func() {
		st, err = sweep.Overlaps(boxes, func(a, b int) { pairs = append(pairs, [2]int32{int32(a), int32(b)}) })
	}))
	if err != nil {
		return err
	}
	m["sweep.pairs"] = float64(st.PairsFound)

	const maxPairs = 200000
	if len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	nop := func(checks.Marker) {}
	if len(pairs) > 0 {
		m["checks.spacing_ns_per_pair"] = float64(timeIt(func() {
			for _, p := range pairs {
				checks.CheckSpacingLim(flat[p[0]].Shape, flat[p[1]].Shape, lim, nop)
			}
		})) / float64(len(pairs))
	}
	if len(flat) > 0 {
		m["checks.width_ns_per_poly"] = float64(timeIt(func() {
			for i := range flat {
				checks.CheckWidth(flat[i].Shape, synth.MinWidthM1, nop)
			}
		})) / float64(len(flat))
	}

	// Range queries on a fixed grid of windows a few cells wide.
	ext := lo.Top.LayerMBR(layout.LayerM1)
	var q samples
	const grid = 12
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			x := ext.XLo + ext.Width()*int64(i)/grid
			y := ext.YLo + ext.Height()*int64(j)/grid
			w := geom.Rect{XLo: x, YLo: y, XHi: x + 2000, YHi: y + 1000}
			q = append(q, us(timeIt(func() { lo.QueryLayer(layout.LayerM1, w) })))
		}
	}
	m["layout.query_layer_us"] = median(q)
	return nil
}

// sessionProbe measures a warm full-deck check on an in-process
// core.Session — the service's work with no HTTP, admission or scheduler in
// the way — and reads the warm report's counters. It returns the layout for
// the standalone probes.
func sessionProbe(ctx context.Context, lib *gdsii.Library, m metrics) (*layout.Layout, error) {
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		return nil, err
	}
	ses := core.NewSession(lo, core.Options{Mode: core.Parallel})
	defer ses.Close(ctx) // probe teardown; a close failure changes no number already taken
	deck := synth.Deck()
	if _, err := ses.Check(ctx, deck); err != nil {
		return nil, err
	}
	var warm samples
	var rep *core.Report
	for i := 0; i < 5; i++ {
		warm.add(timeIt(func() { rep, err = ses.Check(ctx, deck) }))
		if err != nil {
			return nil, err
		}
	}
	m["core.session_warm_ms"] = median(warm)
	reportMetrics(rep, m)
	return lo, nil
}

// poolProbe prices one fan-out item on the plain pool path and through the
// tenant-fair scheduler odrcd routes every check's fan-outs through.
func poolProbe(ctx context.Context, m metrics) error {
	const items = 1 << 18
	var sink atomic.Int64
	body := func(i int) error { sink.Add(int64(i)); return nil }
	var err error
	m["pool.foreach_ns_per_item"] = float64(timeIt(func() { err = pool.ForEachCtx(ctx, 0, items, body) })) / items
	if err != nil {
		return err
	}
	sched := pool.NewScheduler(pool.SchedConfig{})
	defer sched.Close()
	sctx := pool.WithTenant(pool.WithScheduler(ctx, sched), "probe")
	m["pool.sched_foreach_ns_per_item"] = float64(timeIt(func() { err = pool.ForEachCtx(sctx, 0, items, body) })) / items
	return err
}

// editProbe walks the write path one layer at a time on a private layout and
// cache: apply an edit, invalidate the dirty region, rebuild the flatten.
func editProbe(ctx context.Context, lib *gdsii.Library, edits []editOp, m metrics) error {
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		return err
	}
	guard := synth.Deck().MaxReach()
	cache := geocache.New(budget.Limits{})
	if _, err := cache.Flatten(ctx, lo, layout.LayerM1); err != nil {
		return err
	}
	var apply, inval, reflat samples
	for _, e := range edits {
		if e.Layer != layerM1 {
			continue
		}
		ed := layout.Edit{Op: layout.OpInsertRect, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: e.XLo, YLo: e.YLo, XHi: e.XHi, YHi: e.YHi}}
		var dirty []layout.LayerDirty
		d := timeIt(func() { dirty, err = lo.ApplyEdits([]layout.Edit{ed}) })
		if err != nil {
			return err
		}
		apply = append(apply, us(d))
		var rects []geom.Rect
		for _, ld := range dirty {
			for _, r := range ld.Rects {
				rects = append(rects, r.Expand(guard))
			}
		}
		inval = append(inval, us(timeIt(func() {
			cache.InvalidateRegion(layout.LayerM1, guard, partition.Pigeonhole, rects)
		})))
		reflat.add(timeIt(func() { _, err = cache.Flatten(ctx, lo, layout.LayerM1) }))
		if err != nil {
			return err
		}
	}
	m["layout.apply_edits_us"] = median(apply)
	m["geocache.invalidate_region_us"] = median(inval)
	m["geocache.reflatten_after_edit_ms"] = median(reflat)
	return nil
}
