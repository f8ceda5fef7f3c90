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
type parCtx struct {
	dev *gpu.Device
	io  *gpu.Stream // async copies host->device
	cs  *gpu.Stream // check kernels

	geo        *geocache.Cache
	persistent bool           // session-owned: residents outlive the check
	resident   []*residentBuf // slice, not map: eviction scans must be deterministic
	useCtr     int64

	// rec is the record of the rule executing right now (nil when it is not
	// being recorded); liveStats collects what residency plumbing wrote to
	// the report's Stats meanwhile. See live.
	rec       *ruleRecord
	liveStats Stats
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

// live brackets residency plumbing — a layer's upload, reuse or partial
// refresh, the mbr-table copy — inside a rule that is being recorded, and
// returns the func that ends the bracket. Whether a layer is resident is
// session state, not the rule's result: a record made by a cold check must
// not replay its uploads into a warm one. So the bracket suspends the
// device capture, and the Stats written inside it go to liveStats (onto the
// report, not into the record) by the same zeroed-struct swap recordRun uses.
func (pc *parCtx) live(rep *Report) func() {
	rec := pc.rec
	if rec == nil {
		return func() {}
	}
	pc.dev.Capture(nil)
	rule := rep.Stats
	rep.Stats = Stats{}
	return func() {
		pc.liveStats.add(rep.Stats)
		rep.Stats = rule
		pc.dev.Capture(&rec.tape)
	}
}

// rebind is bindEdges on replay. A current record means no dirt reached the
// layer since the recorded run bound it, and nothing else frees a resident
// buffer while records are kept (no budgets: no eviction), so the buffer is
// there and whole: this is the reuse path, taken live.
func (pc *parCtx) rebind(rep *Report, l layout.Layer) error {
	for _, b := range pc.resident {
		if b.layer == l && !b.partial {
			pc.useCtr++
			b.lastUse = pc.useCtr
			pc.cs.WaitEvent(b.ready)
			rep.Stats.DeviceReuses++
			return nil
		}
	}
	return fmt.Errorf("core: replay: layer %d is not device-resident under a current record", l)
}

// residentBuf is one layer's packed edge buffer kept device-resident across
// rules. ready is the event of its upload copy; lastUse orders LRU eviction.
// mbr is the buffer's derived MBR table (built lazily by the first spacing
// rule that needs pair discovery); eviction drops it with the buffer, so a
// re-uploaded layer rebuilds — and re-charges — its derivations.
type residentBuf struct {
	layer   layout.Layer
	bytes   int64
	ready   gpu.Event
	lastUse int64
	mbr     *kernels.MBRTable
	// partial marks a buffer whose stale slice was freed by a region-scoped
	// invalidation: bytes holds only the still-valid prefix, and the next
	// bindEdges grows it back with a delta upload instead of a full one.
	partial bool
}

// mbrTable returns the layer's resident derived MBR table, uploading it on
// first use: the host has already computed the MBR arrays and x-order for
// the row partition (memoized in the geometry cache, usually warmed by the
// prefetch sweep), so one small async copy per layer replaces any device-side
// derivation. The layer must be bound (bindEdges) first.
func (pc *parCtx) mbrTable(ctx context.Context, lo *layout.Layout, rep *Report, l layout.Layer) (*kernels.MBRTable, error) {
	defer pc.live(rep)()
	for _, b := range pc.resident {
		if b.layer == l {
			if b.mbr == nil {
				t, err := pc.geo.Table(ctx, lo, l)
				if err != nil {
					return nil, err
				}
				pc.io.MemcpyAsync("mbr-table", t.Bytes())
				pc.cs.WaitEvent(pc.io.RecordEvent())
				rep.Stats.BytesCopied += t.Bytes()
				b.mbr = t
			}
			return b.mbr, nil
		}
	}
	return nil, fmt.Errorf("core: MBR table: layer %d is not device-resident", l)
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

// transfer models the one-time buffer upload: stream-ordered allocation and
// an async copy on the I/O stream; the compute stream waits on its event.
// It enforces the packed-edges budget (cumulative across the run) and
// surfaces allocator failures (device OOM, injected faults). Pool pressure
// is relieved by evicting resident layer buffers before giving up.
func (e *Engine) transfer(pc *parCtx, rep *Report, edges *kernels.Edges) error {
	if err := budget.Check("packed-edges",
		int64(pc.packed+edges.Len()), e.opts.Budgets.MaxPackedEdges); err != nil {
		return err
	}
	if err := e.allocEvict(pc, rep, edges.Bytes()); err != nil {
		return err
	}
	pc.io.MemcpyAsync("edges", edges.Bytes())
	pc.packed += edges.Len()
	rep.Stats.EdgesPacked += edges.Len()
	rep.Stats.BytesCopied += edges.Bytes()
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
func (e *Engine) bindEdges(pc *parCtx, rep *Report, l layout.Layer, edges *kernels.Edges) error {
	defer pc.live(rep)()
	if pc.rec != nil {
		pc.rec.binds = append(pc.rec.binds, l)
	}
	pc.useCtr++
	for _, b := range pc.resident {
		if b.layer != l {
			continue
		}
		b.lastUse = pc.useCtr
		if b.partial {
			// Grow the kept prefix back to the full rebuilt buffer with one
			// delta copy. Deliberately a plain allocation, not allocEvict:
			// eviction could pick this very buffer as the LRU victim. Partial
			// buffers only exist in budget-free sessions (see
			// Session.applyPending), so failure here means the pool itself is
			// wedged — drop the prefix and upload fresh.
			delta := edges.Bytes() - b.bytes
			if delta > 0 {
				if err := pc.io.AllocAsync(delta); err != nil {
					pc.freeResident(l)
					break
				}
				pc.io.MemcpyAsync("edges-delta", delta)
				rep.Stats.BytesCopied += delta
				b.bytes = edges.Bytes()
			}
			b.partial = false
			b.ready = pc.io.RecordEvent()
			rep.Stats.DeviceDeltaUploads++
		}
		pc.cs.WaitEvent(b.ready)
		rep.Stats.DeviceReuses++
		return nil
	}
	if err := e.transfer(pc, rep, edges); err != nil {
		return err
	}
	ev := pc.io.RecordEvent()
	pc.cs.WaitEvent(ev)
	rep.Stats.DeviceUploads++
	pc.resident = append(pc.resident, &residentBuf{
		layer: l, bytes: edges.Bytes(), ready: ev, lastUse: pc.useCtr,
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
		if err := e.transfer(pc, rep, edges); err != nil {
			return err
		}
		pc.cs.WaitEvent(pc.io.RecordEvent())

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
				kernels.SpacingSweep(pc.cs, edges, checks.Lim(min), kernels.FilterWidth, hit)
			} else {
				kernels.WidthBrute(pc.cs, edges, min, hit)
			}
		case rules.Area:
			kernels.AreaKernel(pc.cs, edges, min, hit)
		case rules.Rectilinear:
			kernels.RectilinearKernel(pc.cs, edges, hit)
		}
		stopSim()
		pc.cs.Synchronize()
		pc.io.FreeAsync(edges.Bytes())

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
	// Host: flatten the layer once (hierarchy range query, memoized across
	// rules by the geometry cache), pack edges in the canonical flatten
	// order and start the one-time async transfer, then partition — the
	// copy is hidden behind the partitioning, per Section V-C. The flatten
	// is where the memory blow-up happens, so the flatten-polys budget
	// applies there (inside the geometry cache). Rows address subsets of
	// the shared buffer by polygon index, so every spacing rule on the
	// layer — whatever its reach partitions into — reuses one packed copy.
	var flat []layout.PlacedPoly
	if err := hostPhase(rep, pc, "par:flatten", func() error {
		var err error
		flat, err = pc.geo.Flatten(ctx, lo, r.Layer)
		return err
	}); err != nil {
		return err
	}
	if len(flat) == 0 {
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
	if err := e.bindEdges(pc, rep, r.Layer, edges); err != nil {
		return err
	}
	return e.spacingRows(ctx, r, pc, rep, edges, rows, func() (*kernels.MBRTable, error) {
		return pc.mbrTable(ctx, lo, rep, r.Layer)
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
	if err := e.transfer(pc, rep, edges); err != nil {
		return err
	}
	pc.cs.WaitEvent(pc.io.RecordEvent())
	err := e.spacingRows(ctx, r, pc, rep, edges, rows, func() (*kernels.MBRTable, error) {
		t := kernels.NewMBRTable(boxes)
		pc.io.MemcpyAsync("mbr-table", t.Bytes())
		pc.cs.WaitEvent(pc.io.RecordEvent())
		rep.Stats.BytesCopied += t.Bytes()
		return t, nil
	})
	pc.io.FreeAsync(edges.Bytes())
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
	kernels.NotchBrute(pc.cs, edges, lim, c)

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
		pairs := kernels.PairDiscoveryTable(pc.cs, edges, t, bruteRows, lim.Reach())
		rep.Stats.PairsConsidered += len(pairs)
		rep.Stats.PairsChecked += len(pairs)
		if len(pairs) > 0 {
			kernels.SpacingBrute(pc.cs, edges, pairs, lim, c)
		}
	}
	pc.cs.Synchronize()
	return nil
}

// sweepRowsPar runs the sweepline executor over the large rows of one
// spacing rule. Rows are independent launch sequences over disjoint members
// of the shared buffer, so the host simulates them concurrently: each row
// evaluates its kernels onto the tape of its own shard and collects its hits
// there, on sweep-kernel scratch recycled through the engine. Tapes and
// hits then land on the check stream and the report strictly in row order.
// The modeled host clock stands still throughout, so every record — name,
// threads, ops, start, end, sequence — is the one a row-after-row loop on
// this goroutine would have enqueued, for every worker count.
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
		if err := pc.cs.Replay(&tbl[i].tape); err != nil {
			return err
		}
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
	if err := e.transfer(pc, rep, ie); err != nil {
		return err
	}
	if err := e.transfer(pc, rep, oe); err != nil {
		return err
	}
	for _, cl := range cands {
		rep.Stats.PairsChecked += len(cl)
	}
	pc.cs.WaitEvent(pc.io.RecordEvent())
	stopSim := rep.Profile.Phase(simPhase)
	kernels.EnclosureEval(pc.cs, ie, oe, cands, r.Min, collect(rep, r))
	stopSim()
	rep.Stats.InstancesEmitted += len(vias)
	pc.cs.Synchronize()
	pc.io.FreeAsync(ie.Bytes())
	pc.io.FreeAsync(oe.Bytes())
	return nil
}
