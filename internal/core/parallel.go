package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

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

// hostPhase measures fn as host work: it is charged to the profiler (whose
// clock the trace recorder shares) and advances the modeled host clock,
// during which the device may still be executing previously enqueued work.
// The modeled window is also kept on the report as a modeled-host span —
// the host side of the trace's overlap analysis. fn's error passes through
// after the clock is charged (the failed work still spent host time).
// hostPhase runs on the engine goroutine only.
func (p *parCtx) hostPhase(rep *Report, name string, fn func() error) error {
	stop := rep.Profile.Phase(name)
	err := fn()
	d := stop()
	m0 := p.dev.HostClock()
	p.dev.HostAdvance(d)
	m1 := p.dev.HostClock()
	if m1 > m0 {
		rep.hostSpans = append(rep.hostSpans, modeledSpan{name: name, s: m0, e: m1})
	}
	return err
}

// simPhase names the profiler phase of a stretch in which the host executes
// simulated thread bodies. They stand in for device time the cost model
// already charges, so the stretch is wall the ledger can name but never a
// hostPhase: it must not advance the modeled host clock.
const simPhase = "par:kernel-sim"

// checkParallel runs the deck through the GPU branch. Rules execute under
// the same per-rule fault isolation as the sequential branch; device OOM
// (the device-pool-bytes budget) surfaces through AllocAsync as an error
// the guard converts into a RuleFailure.
//
// The schedule is pipelined: a prefetch fan-out sweeps the deck ahead of the
// executing rule, flattening, packing, and partitioning upcoming layers on the
// host while the device executes the current rule's kernels — by the time
// rule k starts, its geometry is usually a cache hit costing ~zero host time.
// Prefetching only warms the cache — it never touches streams, the report, or
// rule state — so reports stay bit-identical with and without it.
func (e *Engine) checkParallel(ctx context.Context, lo *layout.Layout, rep *Report, ses *Session, pc *parCtx) error {
	rep.Device = pc.dev
	launches0 := pc.dev.KernelCount()
	if e.opts.Faults != nil {
		inj := e.opts.Faults
		pc.dev.SetAllocHook(func(n int64) error {
			return inj.Hit(ctx, faults.SiteAlloc, strconv.FormatInt(n, 10))
		})
	}

	// A prefetch fan-out sweeps the rest of the deck ahead of the executing
	// rule, warming each upcoming layer's flatten, pack, and (for spacing
	// rules) row partitions while rule 0's kernels execute on this
	// goroutine. The sweep groups by layer — one index per distinct upcoming
	// layer, warming that layer's pack and then its reach partitions in deck
	// order — so layers warm concurrently instead of queueing behind each
	// other's partition computations. The sweep only warms the cache (never
	// streams, the report, or rule state), so reports are bit-identical with
	// and without it, and the cache's call totals — hence its hit/miss
	// counters — are fixed by the deck, not by who wins a race.
	// Delta runs touch a small neighborhood of a few layers; sweeping the
	// whole deck's geometry ahead of them would recompute exactly the work
	// the delta plan avoids, so the prefetcher only runs on full checks — and
	// there only for the rules that execute.
	if e.plan == nil || !e.plan.delta {
		gc := pc.geo
		alg := e.opts.PartitionAlg
		type warmGroup struct {
			l       layout.Layer
			reaches []int64
		}
		var groups []*warmGroup
		for _, r := range e.deck[1:] {
			nl, ok := prefetchLayer(r, e.opts.DisablePruning)
			if rp := e.plan.of(r); !ok || rp != nil && rp.mode != planFull {
				continue
			}
			var g *warmGroup
			for _, h := range groups {
				if h.l == nl {
					g = h
					break
				}
			}
			if g == nil {
				g = &warmGroup{l: nl}
				groups = append(groups, g)
			}
			if r.Kind == rules.Spacing {
				g.reaches = append(g.reaches, r.SpacingLimit().Reach())
			}
		}
		if len(groups) > 0 {
			pctx := trace.WithTask(ctx, "prefetch")
			wait := pool.Go(pctx, min(len(groups), 8), len(groups), func(i int) error {
				g := groups[i]
				_, _ = gc.Pack(ctx, lo, g.l)
				for _, reach := range g.reaches {
					if ctx.Err() != nil {
						return nil
					}
					_, _ = gc.Rows(ctx, lo, g.l, reach, alg)
				}
				if len(g.reaches) > 0 && ctx.Err() == nil {
					_, _ = gc.Table(ctx, lo, g.l)
				}
				return nil
			})
			defer func() { _ = wait() }()
		}
	}

	placements, err := e.instancePlacements(lo, ses, func(fn func()) {
		_ = pc.hostPhase(rep, "par:instance-enumeration", func() error { fn(); return nil })
	})
	if err != nil {
		return err
	}

	for _, r := range e.deck {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: check cancelled: %w", err)
		}
		rp := e.plan.of(r)
		if rp != nil && rp.mode == planSkip {
			// Record current: its violations are the rule's. Device-silent.
			rep.Violations = append(rep.Violations, rp.rec.violations...)
			rep.endSegment(r.ID, true)
			continue
		}
		// Rule boundary: let a lagging co-tenant's check run ahead of this
		// one's next serial stretch (no-op without a context scheduler).
		pool.YieldCtx(ctx)
		e.opts.Logger.Debugf("par: rule %s", r)
		r := r
		w := ruleWindow{rule: r.ID, m0: pc.dev.HostClock(), c0: pc.dev.OpCount()}
		h0 := len(rep.hostSpans)
		err := e.runRule(ctx, rep, r, rp, ses, pc, func() error {
			switch r.Kind {
			case rules.Spacing:
				return e.runSpacingPar(ctx, lo, r, pc, rep)
			case rules.Enclosure:
				return e.runEnclosurePar(ctx, lo, r, placements, pc, rep)
			case rules.Custom:
				// User callables cannot run on the device; the paper's
				// ensures() predicates execute host-side in both modes, with
				// the same per-definition pruning as the sequential branch.
				// The work is host time and must advance the modeled device
				// clock.
				return pc.hostPhase(rep, "par:custom", func() error {
					return e.runIntraSeq(ctx, lo, r, placements, rep)
				})
			default:
				return e.runIntraPar(ctx, lo, r, placements, pc, rep)
			}
		})
		if err != nil {
			return err
		}
		w.m1 = pc.dev.HostClock()
		w.c1 = pc.dev.OpCount()
		for _, h := range rep.hostSpans[h0:] {
			w.host += h.e - h.s
		}
		rep.ruleWindows = append(rep.ruleWindows, w)
	}
	// Return the resident layer buffers to the pool. A persistent
	// (session-owned) context keeps them — that residency across checks is
	// the point of a session; Session.Close frees them the same way.
	if !pc.persistent {
		pc.freeResident()
	}
	pc.cs.Synchronize()
	pc.io.Synchronize()
	// Counted where launches are recorded, so no call site can drift from the
	// timeline (a session's device outlives the check, hence the bracket).
	rep.Stats.KernelLaunches = pc.dev.KernelCount() - launches0
	return nil
}

// prefetchLayer reports which layer the rule's executor will flatten and
// pack, if any — spacing always flattens; intra rules only in the
// pruning-off ablation; enclosure and custom rules never do.
func prefetchLayer(r rules.Rule, pruningOff bool) (layout.Layer, bool) {
	switch r.Kind {
	case rules.Spacing:
		return r.Layer, true
	case rules.Width, rules.Area, rules.Rectilinear:
		if pruningOff {
			return r.Layer, true
		}
	}
	return 0, false
}

// transfer models the one-time buffer upload: stream-ordered allocation and
// an async copy on the I/O stream; the compute stream waits on its event.
// It enforces the packed-edges budget (cumulative across the run) and
// surfaces allocator failures (device OOM, injected faults). Pool pressure
// is relieved by evicting resident layer buffers before giving up.
func (e *Engine) transfer(pc *parCtx, rep *Report, edges *kernels.Edges) error {
	if err := budget.Check("packed-edges",
		int64(rep.Stats.EdgesPacked+edges.Len()), e.opts.Budgets.MaxPackedEdges); err != nil {
		return err
	}
	if err := e.allocEvict(pc, rep, edges.Bytes()); err != nil {
		return err
	}
	pc.io.MemcpyAsync("edges", edges.Bytes())
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

// hitViolation is the report entry of one kernel hit of rule r.
func hitViolation(r rules.Rule, h kernels.Hit) rules.Violation {
	return rules.Violation{Rule: r.ID, Kind: r.Kind, Layer: r.Layer, Marker: h.Marker}
}

// collect adapts kernel hits into report violations.
func collect(rep *Report, r rules.Rule) kernels.Collector {
	return func(h kernels.Hit) { rep.Violations = append(rep.Violations, hitViolation(r, h)) }
}

// runIntraPar checks an intra-polygon rule on the device with the Section
// IV-C pruning: the kernel runs once per cell definition's polygons (per
// distinct magnification), and definition markers replay per instance on
// the host — which is why sequential and parallel modes run equally fast on
// intra checks (the paper's Table I observation).
func (e *Engine) runIntraPar(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, pc *parCtx, rep *Report) error {
	// Group definitions by magnification (one kernel per distinct mag).
	groups := make(map[int64][]*layout.Cell)
	if e.opts.DisablePruning {
		// Ablation: flatten every instance and run one big kernel.
		return e.runIntraParFlat(ctx, lo, r, pc, rep)
	}
	rp := e.restrictFor(r)
	for _, c := range lo.LayerCells(r.Layer) {
		if len(c.LocalPolyIndex(r.Layer)) == 0 || len(placements[c.ID]) == 0 {
			continue
		}
		// Delta restriction: a definition none of whose instances lands near
		// the dirty region cannot contribute a claimed violation.
		if rp != nil && !rp.anyPlacementNear(localIntraMBR(c, r.Layer), placements[c.ID]) {
			continue
		}
		magSet := make(map[int64]bool)
		for _, t := range placements[c.ID] {
			mag := t.Mag
			if mag == 0 {
				mag = 1
			}
			magSet[mag] = true
		}
		cellMags := make([]int64, 0, len(magSet))
		for mag := range magSet {
			cellMags = append(cellMags, mag)
		}
		sort.Slice(cellMags, func(i, j int) bool { return cellMags[i] < cellMags[j] })
		for _, mag := range cellMags {
			groups[mag] = append(groups[mag], c)
		}
	}
	mags := make([]int64, 0, len(groups))
	for mag := range groups {
		mags = append(mags, mag)
	}
	sort.Slice(mags, func(i, j int) bool { return mags[i] < mags[j] })

	for _, mag := range mags {
		if err := ctx.Err(); err != nil {
			return err
		}
		cells := groups[mag]
		var shapes []geom.Polygon
		var owner []*layout.Cell
		if err := pc.hostPhase(rep, "par:edge-packing", func() error {
			for _, c := range cells {
				for _, pi := range c.LocalPolyIndex(r.Layer) {
					shapes = append(shapes, c.Polys[pi].Shape)
					owner = append(owner, c)
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

		defMarkers := make(map[*layout.Cell][]checks.Marker)
		hit := func(h kernels.Hit) {
			c := owner[h.A]
			defMarkers[c] = append(defMarkers[c], h.Marker)
		}
		min := scaledIntraMin(r, mag)
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

		// Replay definition results per instance (host).
		if err := pc.hostPhase(rep, "par:marker-replay", func() error {
			for _, c := range cells {
				rep.Stats.DefsChecked++
				markers := defMarkers[c]
				for _, t := range placements[c.ID] {
					tm := t.Mag
					if tm == 0 {
						tm = 1
					}
					if tm != mag {
						continue
					}
					rep.Stats.InstancesEmitted++
					e.emitMarkers(rep, r, c.Name, markers, t)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// runIntraParFlat is the pruning-off ablation: one kernel over every
// flattened polygon instance, subject to the flatten-polys budget (applied
// inside the geometry cache).
func (e *Engine) runIntraParFlat(ctx context.Context, lo *layout.Layout, r rules.Rule, pc *parCtx, rep *Report) error {
	var flat []layout.PlacedPoly
	if err := pc.hostPhase(rep, "par:flatten", func() error {
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
	var edges *kernels.Edges
	if err := pc.hostPhase(rep, "par:edge-packing", func() error {
		var err error
		edges, err = pc.geo.Pack(ctx, lo, r.Layer)
		return err
	}); err != nil {
		return err
	}
	if err := e.bindEdges(pc, rep, r.Layer, edges); err != nil {
		return err
	}
	c := collect(rep, r)
	stopSim := rep.Profile.Phase(simPhase)
	switch r.Kind {
	case rules.Width:
		// Same executor selection as the pruned path, so the pruning
		// ablation isolates pruning instead of conflating it with a
		// different executor choice.
		if maxPolyEdges(edges) > 32 {
			kernels.SpacingSweep(pc.cs, edges, checks.Lim(r.Min), kernels.FilterWidth, c)
		} else {
			kernels.WidthBrute(pc.cs, edges, r.Min, c)
		}
	case rules.Area:
		kernels.AreaKernel(pc.cs, edges, 2*r.Min, c)
	case rules.Rectilinear:
		kernels.RectilinearKernel(pc.cs, edges, c)
	}
	stopSim()
	rep.Stats.DefsChecked += len(flat)
	rep.Stats.InstancesEmitted += len(flat)
	pc.cs.Synchronize()
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
	// Host: flatten the layer once (hierarchy range query, memoized across
	// rules by the geometry cache), pack edges in the canonical flatten
	// order and start the one-time async transfer, then partition — the
	// copy is hidden behind the partitioning, per Section V-C. The flatten
	// is where the memory blow-up happens, so the flatten-polys budget
	// applies there (inside the geometry cache). Rows address subsets of
	// the shared buffer by polygon index, so every spacing rule on the
	// layer — whatever its reach partitions into — reuses one packed copy.
	var flat []layout.PlacedPoly
	if err := pc.hostPhase(rep, "par:flatten", func() error {
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
	lim := r.SpacingLimit()
	var rows []partition.Row
	if err := pc.hostPhase(rep, "par:partition", func() error {
		var err error
		rows, err = pc.geo.Rows(ctx, lo, r.Layer, lim.Reach(), e.opts.PartitionAlg)
		return err
	}); err != nil {
		return err
	}
	var edges *kernels.Edges
	if err := pc.hostPhase(rep, "par:edge-packing", func() error {
		var err error
		edges, err = pc.geo.Pack(ctx, lo, r.Layer)
		return err
	}); err != nil {
		return err
	}
	if err := e.bindEdges(pc, rep, r.Layer, edges); err != nil {
		return err
	}
	// Delta restriction: rows whose y-band misses the work window cannot
	// hold a claimed violation (a violation's marker lies between its two
	// edges, both inside the row), so they are skipped outright — their
	// record violations are retained by the merge. Notches restrict the
	// same way at polygon granularity.
	rp := e.restrictFor(r)
	if rp != nil {
		kept := rows[:0:0]
		for _, row := range rows {
			if rp.nearWorkY(row.YLo, row.YHi) {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	rep.Stats.Rows += len(rows)
	c := collect(rep, r)
	defer rep.Profile.Phase(simPhase)()

	// Notches are intra-polygon but belong to the spacing rule: one batched
	// launch over every polygon — of the surviving rows, when restricted.
	if rp != nil {
		boxes, err := pc.geo.MBRs(ctx, lo, r.Layer)
		if err != nil {
			return err
		}
		if members := notchMembersNear(rows, boxes, rp); len(members) > 0 {
			kernels.NotchMembers(pc.cs, edges, members, lim, c)
		}
	} else {
		kernels.NotchBrute(pc.cs, edges, lim, c)
	}

	// Executor selection per row; the brute rows batch into one launch set
	// (rows become grid blocks), large rows take the sweepline executor on
	// their members of the shared buffer. Row members are ascending
	// canonical polygon indices, so the member-indexed kernels test the
	// same pairs in the same order as the old row-reordered packing did.
	var bruteRows, sweepRows [][]int32
	for _, row := range rows {
		members := make([]int32, len(row.Members))
		total := 0
		for i, m := range row.Members {
			members[i] = int32(m)
			elo, ehi := edges.PolyEdges(m)
			total += ehi - elo
		}
		if total <= e.opts.BruteEdgeThreshold {
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
		// surviving pair enumerates its edge cross product. The MBR table and
		// global x-order are built once per resident layer and every rule
		// gathers its row orders from them (a stable filter of the same total
		// order).
		t, err := pc.mbrTable(ctx, lo, rep, r.Layer)
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

// notchMembersNear lists, ascending, the polygons whose box meets the work
// window. A polygon near the window sits in a row whose band is, so the
// members of the rows that survived nearWorkY are the only candidates and the
// layer is never scanned.
func notchMembersNear(rows []partition.Row, boxes []geom.Rect, rp *rulePlan) []int32 {
	var members []int32
	for _, row := range rows {
		for _, m := range row.Members {
			if rp.nearWork(boxes[m]) {
				members = append(members, int32(m))
			}
		}
	}
	slices.Sort(members)
	return members
}

// sweepRowsPar runs the sweepline executor over the large rows of one
// spacing rule. Rows are independent launch sequences over disjoint members
// of the shared buffer, so the host simulates them concurrently: each row
// evaluates its kernels onto the tape of its own recycled shard and collects
// its hits there, on scratch columns drawn from the run's arena. Tapes and
// hits then land on the check stream and the report strictly in row order.
// The modeled host clock stands still throughout, so every record — name,
// threads, ops, start, end, sequence — is the one a row-after-row loop on
// this goroutine would have enqueued, for every worker count.
func (e *Engine) sweepRowsPar(ctx context.Context, r rules.Rule, pc *parCtx, rep *Report, edges *kernels.Edges, rows [][]int32, lim checks.SpacingLimit) error {
	if len(rows) == 0 {
		return nil
	}
	props := pc.dev.Props()
	tbl := e.shards.get(len(rows))
	err := pool.ForEachCtx(trace.WithTask(ctx, "sweep-row"), e.opts.Workers, len(rows), func(ri int) error {
		if inj := e.opts.Faults; inj != nil {
			if err := inj.Hit(ctx, faults.SiteRow, fmt.Sprintf("%s/sweep-row#%d", r.ID, ri)); err != nil {
				return err
			}
		}
		res := &tbl.s[ri]
		res.tape.Reset(props)
		sc := pc.geo.Arena().Sweep()
		defer pc.geo.Arena().PutSweep(sc)
		sc.SweepPolys(&res.tape, edges, rows[ri], lim, kernels.FilterSpacing, func(h kernels.Hit) {
			res.vs = append(res.vs, hitViolation(r, h))
		})
		return nil
	})
	if err != nil {
		tbl.discard()
		return err
	}
	for i := range tbl.s {
		if err := pc.cs.Replay(&tbl.s[i].tape); err != nil {
			tbl.discard()
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
	if err := pc.hostPhase(rep, "par:local-pruning", func() error {
		for _, c := range lo.LayerCells(r.Layer) {
			if err := ctx.Err(); err != nil {
				return err
			}
			if len(placements[c.ID]) == 0 {
				continue
			}
			local := c.LocalPolys(r.Layer)
			if len(local) == 0 {
				continue
			}
			rep.Stats.DefsChecked++
			if e.opts.DisablePruning {
				for _, pi := range local {
					deferred = append(deferred, residue{cell: c, polyIdx: pi})
				}
				continue
			}
			unresolved, err := e.enclosureLocalPass(lo, c, local, r, rep)
			if err != nil {
				return err
			}
			resolved := len(local) - len(unresolved)
			rep.Stats.InstancesEmitted += resolved * len(placements[c.ID])
			rep.Stats.ChecksReused += resolved * (len(placements[c.ID]) - 1)
			for _, pi := range unresolved {
				deferred = append(deferred, residue{cell: c, polyIdx: pi})
			}
		}
		return nil
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
	if err := pc.hostPhase(rep, "par:flatten", func() error {
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
