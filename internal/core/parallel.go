package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"opendrc/internal/budget"
	"opendrc/internal/checks"
	"opendrc/internal/faults"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// The parallel mode (Section IV-E). Per the paper's flow (Fig. 1), the
// hierarchy task pruning of Section IV-C runs before the branch split, so
// the parallel branch also checks intra-polygon rules once per cell
// definition and prunes enclosure checks that resolve inside definitions.
// For the remaining work the layout is flattened once, the packed edge
// buffer is transferred with one asynchronous copy that overlaps the
// adaptive row partition on the host (Section V-C), and checks then run row
// by row as kernels addressing ranges of the transferred buffer: cells in
// different rows cannot produce violations against each other. Per row, the
// engine selects the brute-force executor (one thread per MBR-candidate
// polygon pair) for small rows and the two-kernel parallel sweepline for
// large ones.

// parCtx bundles the device plumbing of one parallel run. A batch run owns
// its parCtx for one check; a Session marks its parCtx persistent and hands
// it to every check it serves, so resident layer buffers (and their derived
// MBR tables) survive across checks until the session closes or evicts them.
//
// An executing rule never touches the streams: it records its device work
// on its own tape (Report.tape), naming io and cs as the streams of its
// commands, and reads only dev's properties and geo. Everything else here is
// settled state — the streams, the residents, the budget's running total —
// which the rules' tapes change one rule at a time, in deck order, as they
// replay (Engine.settle).
type parCtx struct {
	dev *gpu.Device
	io  *gpu.Stream // async copies host->device
	cs  *gpu.Stream // check kernels

	geo        *geocache.Cache
	persistent bool           // session-owned: residents outlive the check
	resident   []*residentBuf // slice, not map: eviction scans must be deterministic
	useCtr     int64
	// packed is the edges this check has uploaded: the packed-edges budget's
	// running total, which no rule's child report sees whole.
	packed int
}

// newParCtx builds the device plumbing of a batch run (persistent false) or
// a session: the device, its h2d and checks streams, and the pool limit of
// the device-bytes budget.
func newParCtx(opts Options, geo *geocache.Cache, persistent bool) *parCtx {
	pc := &parCtx{dev: gpu.NewDevice(opts.Device), geo: geo, persistent: persistent}
	pc.io = pc.dev.NewStream("h2d")
	pc.cs = pc.dev.NewStream("checks")
	if n := opts.Budgets.MaxDeviceBytes; n > 0 {
		pc.dev.SetMemLimit(n)
	}
	return pc
}

// freeResident frees the device-resident buffers of the given layers (all
// when none given), ordered after every kernel enqueued so far, mirroring how
// they were uploaded: the end of a batch run, an LRU eviction, a session's
// invalidation and its Close all free this way.
func (pc *parCtx) freeResident(layers ...layout.Layer) {
	keep := pc.resident[:0]
	var doomed []*residentBuf
	for _, b := range pc.resident {
		if len(layers) == 0 || slices.Contains(layers, b.layer) {
			doomed = append(doomed, b)
		} else {
			keep = append(keep, b)
		}
	}
	if len(doomed) == 0 {
		return
	}
	pc.io.WaitEvent(pc.cs.RecordEvent())
	for _, b := range doomed {
		pc.io.FreeAsync(b.bytes)
	}
	pc.resident = keep
}

// residentBuf is one layer's packed edge buffer kept device-resident across
// rules. ready is the event of its upload copy; lastUse orders LRU eviction.
// table says the buffer's derived MBR table has been copied (by the first
// spacing rule that needed pair discovery); eviction drops it with the
// buffer, so a re-uploaded layer re-copies — and re-charges — it.
type residentBuf struct {
	layer   layout.Layer
	bytes   int64
	ready   gpu.Event
	lastUse int64
	table   bool
}

// devMark is a mark on a rule's tape: a point where the rule needs device
// memory whose provision depends on the rules before it — whether a layer is
// already resident, what the pool holds, how much of the packed-edges budget
// is spent, which allocation an injected fault hits — and is therefore
// decided when the tape replays, in deck order (Engine.settleMark). A mark
// holds sizes only, so a session record's tape replays its marks into a
// later check as they were recorded.
type devMark struct {
	kind  markKind
	layer layout.Layer // bindLayer, bindTable
	bytes int64
	edges int // bindLayer, upload: the edges the packed-edges budget charges
}

// markKind says what a devMark provides.
type markKind uint8

const (
	// bindLayer makes a layer's packed edge buffer addressable by the checks
	// stream: uploaded or reused.
	bindLayer markKind = iota
	// bindTable is the bound layer's MBR table, copied on its first use.
	bindTable
	// upload is a buffer of the rule's own: allocated, evicting residents
	// under pool pressure, and copied; the rule's tape frees it.
	upload
)

// uploadMark is the upload mark of a rule-private packed buffer.
func uploadMark(edges *kernels.Edges) devMark {
	return devMark{kind: upload, bytes: edges.Bytes(), edges: edges.Len()}
}

// settleMark provides what mark m of the rule whose child report is rep
// needs, on the live streams; the Stats of the provision go on rep.
func (e *Engine) settleMark(pc *parCtx, rep *Report, m devMark) error {
	switch m.kind {
	case bindLayer:
		return e.bindEdges(pc, rep, m)
	case bindTable:
		return pc.copyTable(rep, m)
	}
	return e.transfer(pc, rep, m)
}

// copyTable copies a resident layer's derived MBR table on first use: the
// host has already computed the MBR arrays and x-order for the row partition
// (memoized in the geometry cache, usually warmed by the prefetch sweep), so
// one small async copy per layer replaces any device-side derivation. The
// layer's bind mark precedes it on the tape.
func (pc *parCtx) copyTable(rep *Report, m devMark) error {
	for _, b := range pc.resident {
		if b.layer == m.layer {
			if !b.table {
				pc.io.MemcpyAsync("mbr-table", m.bytes)
				pc.cs.WaitEvent(pc.io.RecordEvent())
				rep.Stats.BytesCopied += m.bytes
				b.table = true
			}
			return nil
		}
	}
	return fmt.Errorf("core: MBR table: layer %d is not device-resident", m.layer)
}

// simPhase names the profiler phase of a stretch in which the host executes
// simulated thread bodies. They stand in for device time the cost model
// already charges, so the stretch is wall the ledger can name but never a
// hostPhase: it must not advance the modeled host clock.
const simPhase = "par:kernel-sim"

// prefetch starts the parallel mode's pipelined schedule: a fan-out sweeps
// the deck after its first rule, warming each upcoming spacing layer's
// flatten, pack and row partitions on the host while the device executes the
// current rule's kernels — by the time rule k starts, its geometry is
// usually a cache hit costing ~zero host time. The layer's MBR table is
// warmed too, but only when one of those partitions has a row the brute
// executor takes: nothing else reads it. The sweep groups by layer — one
// index per distinct upcoming layer, warming that layer's pack and then its
// reach partitions in deck order — so layers warm concurrently instead of
// queueing behind each other's partition computations. It only warms the
// cache (never streams, the report, or rule state), so reports are
// bit-identical with and without it, and the cache's call totals — hence its
// hit/miss counters — are fixed by the deck, not by who wins a race.
//
// Delta runs touch a small neighborhood of a few layers; sweeping the whole
// deck's geometry ahead of them would recompute exactly the work the delta
// plan avoids, so the sweep only runs on full checks — and there only for the
// rules that read the cache (Engine.readsCache), whose layers the session has
// patched before the sweep starts. The returned wait blocks until the sweep
// is done; the check calls it before it reads the cache's counters.
func (e *Engine) prefetch(ctx context.Context, lo *layout.Layout, gc *geocache.Cache) func() {
	if e.plan != nil && e.plan.delta {
		return func() {}
	}
	type warmGroup struct {
		l       layout.Layer
		reaches []int64
	}
	var groups []*warmGroup
	for i, r := range e.deck {
		if i == 0 || !e.readsCache(r) {
			continue
		}
		j := slices.IndexFunc(groups, func(g *warmGroup) bool { return g.l == r.Layer })
		if j < 0 {
			j = len(groups)
			groups = append(groups, &warmGroup{l: r.Layer})
		}
		groups[j].reaches = append(groups[j].reaches, r.SpacingLimit().Reach())
	}
	if len(groups) == 0 {
		return func() {}
	}
	wait := pool.Go(trace.WithTask(ctx, "prefetch"), min(len(groups), 8), len(groups), func(i int) error {
		g := groups[i]
		edges, perr := gc.Pack(ctx, lo, g.l)
		readsTable := false
		for _, reach := range g.reaches {
			if ctx.Err() != nil {
				return nil
			}
			rows, err := gc.Rows(ctx, lo, g.l, reach, partition.Pigeonhole)
			if perr == nil && err == nil && !readsTable {
				readsTable = slices.ContainsFunc(rows, func(row partition.Row) bool { return e.bruteRow(edges, row.Members) })
			}
		}
		if readsTable && ctx.Err() == nil {
			_, _ = gc.Table(ctx, lo, g.l)
		}
		return nil
	})
	return func() { _ = wait() }
}

// bruteRow is the executor selection of a spacing row: a row whose members
// pack at most BruteEdgeThreshold edges takes the brute-force executor (and
// reads the layer's MBR table), a larger one the sweepline.
func (e *Engine) bruteRow(edges *kernels.Edges, members []int) bool {
	total := 0
	for _, m := range members {
		lo, hi := edges.PolyEdges(m)
		if total += hi - lo; total > e.opts.BruteEdgeThreshold {
			return false
		}
	}
	return true
}

// transfer models a one-time buffer upload: stream-ordered allocation and an
// async copy on the I/O stream (the compute stream's wait on it is the
// tape's). It enforces the packed-edges budget (cumulative across the run,
// in deck order) and surfaces allocator failures (device OOM, injected
// faults). Pool pressure is relieved by evicting resident layer buffers
// before giving up.
func (e *Engine) transfer(pc *parCtx, rep *Report, m devMark) error {
	if err := budget.Check("packed-edges",
		int64(pc.packed+m.edges), e.opts.Budgets.MaxPackedEdges); err != nil {
		return err
	}
	if err := e.allocEvict(pc, rep, m.bytes); err != nil {
		return err
	}
	pc.io.MemcpyAsync("edges", m.bytes)
	pc.packed += m.edges
	rep.Stats.EdgesPacked += m.edges
	rep.Stats.BytesCopied += m.bytes
	return nil
}

// allocEvict is AllocAsync with LRU relief: when the stream-ordered
// allocation trips the device-pool-bytes budget, the least-recently-used
// resident layer buffer is freed (ordered after every kernel enqueued so
// far) and the allocation retries — a failed AllocAsync leaves the pool
// untouched, so retrying after an evict is safe. Injected allocator faults
// and other errors return as-is; eviction only answers genuine pool
// pressure, and with no residents left the budget error stands.
func (e *Engine) allocEvict(pc *parCtx, rep *Report, n int64) error {
	for {
		err := pc.io.AllocAsync(n)
		if err == nil || !errors.Is(err, budget.ErrExceeded) {
			return err
		}
		victim := -1
		for i, b := range pc.resident {
			if victim < 0 || b.lastUse < pc.resident[victim].lastUse {
				victim = i
			}
		}
		if victim < 0 {
			return err
		}
		pc.freeResident(pc.resident[victim].layer)
		rep.Stats.DeviceEvictions++
	}
}

// bindEdges makes a layer's packed buffer addressable by the compute
// stream: the first rule touching a layer uploads it once and later rules
// reuse the resident copy by waiting on its upload event; an evicted layer
// re-uploads on next use. The run (or the session) frees residents.
//
// The packed-edges budget is charged per upload (see Options.Budgets).
func (e *Engine) bindEdges(pc *parCtx, rep *Report, m devMark) error {
	l := m.layer
	pc.useCtr++
	for _, b := range pc.resident {
		if b.layer != l {
			continue
		}
		b.lastUse = pc.useCtr
		pc.cs.WaitEvent(b.ready)
		rep.Stats.DeviceReuses++
		return nil
	}
	if err := e.transfer(pc, rep, m); err != nil {
		return err
	}
	ev := pc.io.RecordEvent()
	pc.cs.WaitEvent(ev)
	rep.Stats.DeviceUploads++
	pc.resident = append(pc.resident, &residentBuf{
		layer: l, bytes: m.bytes, ready: ev, lastUse: pc.useCtr,
	})
	return nil
}

// collect adapts kernel hits into report violations.
func collect(rep *Report, r rules.Rule) kernels.Collector {
	return func(h kernels.Hit) { rep.Violations = append(rep.Violations, r.Violation(h.Marker, "")) }
}

// runIntraPar checks an intra-polygon rule's units (intraUnits) on the
// device: one kernel per distinct magnification over its units' polygons,
// whose markers replay per instance on the host — which is why sequential
// and parallel modes run equally fast on intra checks (the paper's Table I
// observation).
func (e *Engine) runIntraPar(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, pc *parCtx, rep *Report) error {
	groups := make(map[int64][]intraUnit)
	for _, u := range e.intraUnits(lo, r, placements, rep, pc) {
		groups[u.mag] = append(groups[u.mag], u)
	}
	mags := make([]int64, 0, len(groups))
	for mag := range groups {
		mags = append(mags, mag)
	}
	slices.Sort(mags)

	for _, mag := range mags {
		if err := ctx.Err(); err != nil {
			return err
		}
		units := groups[mag]
		var shapes []geom.Polygon
		var owner []int // shape → index into units
		if err := hostPhase(rep, pc, "par:edge-packing", func() error {
			for i, u := range units {
				for _, pi := range u.polys {
					shapes = append(shapes, u.c.Polys[pi].Shape)
					owner = append(owner, i)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		edges := kernels.Pack(shapes)
		rep.tape.Mark(uploadMark(edges))
		rep.tape.Wait(pc.cs, pc.io)

		unitMarkers := make([][]checks.Marker, len(units))
		hit := func(h kernels.Hit) {
			i := owner[h.A]
			unitMarkers[i] = append(unitMarkers[i], h.Marker)
		}
		min := r.IntraMin(mag)
		stopSim := rep.Profile.Phase(simPhase)
		switch r.Kind {
		case rules.Width:
			if maxPolyEdges(edges) > 32 {
				kernels.SpacingSweep(rep.tape, edges, checks.Lim(min), kernels.FilterWidth, hit)
			} else {
				kernels.WidthBrute(rep.tape, edges, min, hit)
			}
		case rules.Area:
			kernels.AreaKernel(rep.tape, edges, min, hit)
		case rules.Rectilinear:
			kernels.RectilinearKernel(rep.tape, edges, hit)
		}
		stopSim()
		rep.tape.Synchronize(pc.cs)
		rep.tape.FreeAsync(pc.io, edges.Bytes())

		// Replay unit results per instance (host).
		if err := hostPhase(rep, pc, "par:marker-replay", func() error {
			for i, u := range units {
				rep.Stats.reuse(len(u.insts))
				for _, t := range u.insts {
					rep.Violations = appendMarkers(rep.Violations, r, u.c.Name, unitMarkers[i], t)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func maxPolyEdges(e *kernels.Edges) int {
	max := 0
	for p := 0; p < e.NumPolys(); p++ {
		lo, hi := e.PolyEdges(p)
		if hi-lo > max {
			max = hi - lo
		}
	}
	return max
}

// runSpacingPar checks one spacing rule row by row on the device.
func (e *Engine) runSpacingPar(ctx context.Context, lo *layout.Layout, r rules.Rule, pc *parCtx, rep *Report) error {
	if rp := e.restrictFor(r); rp != nil {
		return e.runSpacingWindow(ctx, lo, r, rp, pc, rep)
	}
	// Host: flatten the layer once (one hierarchy walk straight into the
	// packed edge buffer and the polygon boxes, no instance records,
	// memoized across rules by the geometry cache), start the buffer's
	// one-time async transfer, then partition — the
	// copy is hidden behind the partitioning, per Section V-C. The flatten
	// is where the memory blow-up happens, so the flatten-polys budget
	// applies there (inside the geometry cache). Rows address subsets of
	// the shared buffer by polygon index, so every spacing rule on the
	// layer — whatever its reach partitions into — reuses one packed copy.
	var flat *kernels.Edges
	if err := hostPhase(rep, pc, "par:flatten", func() error {
		var err error
		flat, err = pc.geo.Fill(ctx, lo, r.Layer)
		return err
	}); err != nil {
		return err
	}
	if flat.NumPolys() == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var rows []partition.Row
	if err := hostPhase(rep, pc, "par:partition", func() error {
		var err error
		rows, err = pc.geo.Rows(ctx, lo, r.Layer, r.SpacingLimit().Reach(), partition.Pigeonhole)
		return err
	}); err != nil {
		return err
	}
	var edges *kernels.Edges
	if err := hostPhase(rep, pc, "par:edge-packing", func() error {
		var err error
		edges, err = pc.geo.Pack(ctx, lo, r.Layer)
		return err
	}); err != nil {
		return err
	}
	rep.tape.Mark(devMark{kind: bindLayer, layer: r.Layer, bytes: edges.Bytes(), edges: edges.Len()})
	return e.spacingRows(ctx, r, pc, rep, edges, rows, func() (*kernels.MBRTable, error) {
		t, err := pc.geo.Table(ctx, lo, r.Layer)
		if err != nil {
			return nil, err
		}
		rep.tape.Mark(devMark{kind: bindTable, layer: r.Layer, bytes: t.Bytes()})
		return t, nil
	})
}

// runSpacingWindow is a restricted spacing run: the polygons its work window
// returns, in the global frame, packed into a buffer of their own and
// partitioned into rows, then checked by the full run's row executors, pair
// discovery reading an MBR table of the window's polygons. Nothing of the
// resident layer is read — not its cache record, which may wait for a patch,
// nor its device buffer.
func (e *Engine) runSpacingWindow(ctx context.Context, lo *layout.Layout, r rules.Rule, rp *rulePlan, pc *parCtx, rep *Report) error {
	var edges *kernels.Edges
	var boxes []geom.Rect
	var rows []partition.Row
	_ = hostPhase(rep, pc, "delta:window", func() error {
		found, bs := rp.windowPolys(lo, r.Layer)
		shapes := make([]geom.Polygon, len(found))
		for i := range found {
			shapes[i] = found[i].Shape
		}
		edges, boxes = kernels.Pack(shapes), bs
		rows = partition.Rows(boxes, r.SpacingLimit().Reach(), partition.Pigeonhole)
		return nil
	})
	if len(boxes) == 0 {
		return nil
	}
	rep.tape.Mark(uploadMark(edges))
	rep.tape.Wait(pc.cs, pc.io)
	err := e.spacingRows(ctx, r, pc, rep, edges, rows, func() (*kernels.MBRTable, error) {
		t := kernels.NewMBRTable(boxes)
		rep.tape.MemcpyAsync(pc.io, "mbr-table", t.Bytes())
		rep.tape.Wait(pc.cs, pc.io)
		rep.Stats.BytesCopied += t.Bytes()
		return t, nil
	})
	rep.tape.FreeAsync(pc.io, edges.Bytes())
	return err
}

// spacingRows runs one spacing rule's kernels over the rows of a packed
// buffer on the device: notches over every polygon, then the executor each
// row selects. table supplies the MBR table brute rows discover pairs in; it
// is only called when a row takes the brute executor.
func (e *Engine) spacingRows(ctx context.Context, r rules.Rule, pc *parCtx, rep *Report, edges *kernels.Edges, rows []partition.Row, table func() (*kernels.MBRTable, error)) error {
	lim := r.SpacingLimit()
	rep.Stats.Rows += len(rows)
	c := collect(rep, r)
	defer rep.Profile.Phase(simPhase)()

	// Notches are intra-polygon but belong to the spacing rule: one batched
	// launch over every polygon.
	kernels.NotchBrute(rep.tape, edges, lim, c)

	// Executor selection per row; the brute rows batch into one launch set
	// (rows become grid blocks), large rows take the sweepline executor on
	// their members of the shared buffer. Row members are ascending
	// canonical polygon indices, so the member-indexed kernels test the
	// same pairs in the same order as the old row-reordered packing did.
	var bruteRows, sweepRows [][]int32
	for _, row := range rows {
		members := make([]int32, len(row.Members))
		for i, m := range row.Members {
			members[i] = int32(m)
		}
		if e.bruteRow(edges, row.Members) {
			bruteRows = append(bruteRows, members)
		} else {
			sweepRows = append(sweepRows, members)
		}
	}
	if err := e.sweepRowsPar(ctx, r, pc, rep, edges, sweepRows, lim); err != nil {
		return err
	}
	if len(bruteRows) > 0 {
		// The device discovers candidate pairs by expanded-MBR overlap
		// (Section IV-C's check pruning as kernels), then one thread per
		// surviving pair enumerates its edge cross product. A resident
		// layer's MBR table and global x-order are built once and every rule
		// gathers its row orders from them (a stable filter of the same total
		// order).
		t, err := table()
		if err != nil {
			return err
		}
		pairs := kernels.PairDiscoveryTable(rep.tape, edges, t, bruteRows, lim.Reach())
		rep.Stats.PairsConsidered += len(pairs)
		rep.Stats.PairsChecked += len(pairs)
		if len(pairs) > 0 {
			kernels.SpacingBrute(rep.tape, edges, pairs, lim, c)
		}
	}
	rep.tape.Synchronize(pc.cs)
	return nil
}

// sweepRowsPar runs the sweepline executor over the large rows of one
// spacing rule. Rows are independent launch sequences over disjoint members
// of the shared buffer, so the host simulates them concurrently: each row
// evaluates its kernels onto the tape of its own shard and collects its hits
// there, on sweep-kernel scratch recycled through the engine. Tapes and
// hits then land on the rule's tape and the report strictly in row order,
// so the rule's tape is the one a row-after-row loop would have recorded,
// for every worker count.
func (e *Engine) sweepRowsPar(ctx context.Context, r rules.Rule, pc *parCtx, rep *Report, edges *kernels.Edges, rows [][]int32, lim checks.SpacingLimit) error {
	if len(rows) == 0 {
		return nil
	}
	props := pc.dev.Props()
	tbl := make(shardTable, len(rows))
	err := pool.ForEachCtx(trace.WithTask(ctx, "sweep-row"), e.opts.Workers, len(rows), func(ri int) error {
		if inj := e.opts.Faults; inj != nil {
			if err := inj.Hit(ctx, faults.SiteRow, fmt.Sprintf("%s/sweep-row#%d", r.ID, ri)); err != nil {
				return err
			}
		}
		res := &tbl[ri]
		res.tape.Reset(props)
		sc := takeScratch(&e.kernelSweeps)
		defer e.kernelSweeps.Put(sc)
		sc.SweepPolys(&res.tape, edges, rows[ri], lim, kernels.FilterSpacing, func(h kernels.Hit) {
			res.vs = append(res.vs, r.Violation(h.Marker, ""))
		})
		return nil
	})
	if err != nil {
		return err
	}
	for i := range tbl {
		rep.tape.Append(&tbl[i].tape)
	}
	tbl.mergeViolations(rep)
	return nil
}

// runEnclosurePar resolves enclosure with the Section IV-C pruning first:
// vias covered with margin inside their own cell definition pass for every
// instance and never reach the device; only the residue (vias needing
// parent-level metal) is instance-expanded and checked with the
// enclosure-evaluation kernel.
func (e *Engine) runEnclosurePar(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, pc *parCtx, rep *Report) error {
	var deferred []residue
	if err := hostPhase(rep, pc, "par:local-pruning", func() (err error) {
		deferred, err = e.enclosureDefs(ctx, lo, r, placements, rep)
		return err
	}); err != nil {
		return err
	}
	if len(deferred) == 0 {
		return nil
	}

	// Instance-expand the residue; candidate metal comes from hierarchy
	// range queries around each residual via (not a full-layer flatten —
	// the residue is small by construction).
	var vias []geom.Polygon
	var metals []geom.Polygon
	var cands [][]int32
	if err := hostPhase(rep, pc, "par:flatten", func() error {
		return expandResidue(ctx, lo, r.Outer, r.Min, deferred, placements, func(_ residue, gvia geom.Polygon, found []geom.Polygon) {
			list := make([]int32, len(found))
			for i := range found {
				list[i] = int32(len(metals) + i)
			}
			metals = append(metals, found...)
			vias = append(vias, gvia)
			cands = append(cands, list)
		})
	}); err != nil {
		return err
	}
	ie := kernels.Pack(vias)
	oe := kernels.Pack(metals)
	rep.tape.Mark(uploadMark(ie))
	rep.tape.Mark(uploadMark(oe))
	for _, cl := range cands {
		rep.Stats.PairsChecked += len(cl)
	}
	rep.tape.Wait(pc.cs, pc.io)
	stopSim := rep.Profile.Phase(simPhase)
	kernels.EnclosureEval(rep.tape, ie, oe, cands, r.Min, collect(rep, r))
	stopSim()
	rep.Stats.InstancesEmitted += len(vias)
	rep.tape.Synchronize(pc.cs)
	rep.tape.FreeAsync(pc.io, ie.Bytes())
	rep.tape.FreeAsync(pc.io, oe.Bytes())
	return nil
}
