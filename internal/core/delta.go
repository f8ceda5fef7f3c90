package core

import (
	"context"
	"slices"

	"opendrc/internal/budget"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// Delta checks. After an in-place layout edit, the violations that can have
// changed are spatially bounded: a rule relates geometry only within its
// interaction reach, so every violation created or destroyed by an edit has
// its marker inside the edit region dilated by that reach. A session
// therefore tracks the undilated dirty rectangles of each edit, and a
// DeltaCheck re-runs each rule only over the dirty neighborhood, retaining
// the prior check's violations everywhere else:
//
//   - U   = union of dirty rects on the rule's layer (undilated)
//   - C_r = U dilated by the rule's reach — the CLAIM region. Any violation
//     whose marker box center lies in C_r is re-derived by the delta run;
//     any whose center lies outside is provably unchanged and is retained
//     from the baseline. (The marker box of a pair violation lies between
//     the two edges, both within reach of each other, so a violation
//     involving edited geometry — which is inside U — has its whole box,
//     center included, inside C_r. The center predicate is evaluated on the
//     same global box on both sides, so claimed and retained partition the
//     cold result exactly.)
//   - W_r = C_r dilated by the reach again — the WORK window. Geometry whose
//     expanded MBR misses W_r cannot produce a violation centered in C_r,
//     so the delta run restricts partition rows, cell instances, and kernel
//     member lists to W_r's neighborhood.
//
// The merged stream (claimed ∪ retained) is the same violation multiset a
// cold full check of the edited layout produces; Report.WriteCanonicalJSON
// serializes violations as an order-normalized multiset, so delta reports
// are byte-identical to cold reports. Rules untouched by any dirty layer
// skip execution entirely (their baseline violations are retained
// wholesale); rules whose kinds have no restricted executor — enclosure,
// derived-layer booleans, custom predicates — re-run in full, which is
// trivially identical.

// deltaMode classifies one rule's execution inside a delta check.
type deltaMode uint8

const (
	deltaFull     deltaMode = iota // re-run completely, own all its violations
	deltaSkip                      // not run; baseline violations retained wholesale
	deltaRestrict                  // run restricted to W, claim inside C, retain the rest
)

// rulePlan is one rule's delta classification with its claim/work regions.
type rulePlan struct {
	mode  deltaMode
	claim []geom.Rect // C_r
	work  []geom.Rect // W_r
}

// claims reports whether the rule's delta run owns a violation with this
// marker box: the box center lies in the claim region. The same predicate
// filters retained baseline violations, so the two streams partition.
func (rp *rulePlan) claims(box geom.Rect) bool {
	ctr := box.Center()
	for _, r := range rp.claim {
		if r.Contains(ctr) {
			return true
		}
	}
	return false
}

// nearWork reports whether a (global-frame) box intersects the work window.
func (rp *rulePlan) nearWork(box geom.Rect) bool {
	for _, r := range rp.work {
		if box.Overlaps(r) {
			return true
		}
	}
	return false
}

// nearWorkY reports whether a y-band can hold geometry intersecting the work
// window (used to keep or skip whole partition rows).
func (rp *rulePlan) nearWorkY(ylo, yhi int64) bool {
	for _, r := range rp.work {
		if r.YLo <= yhi && ylo <= r.YHi {
			return true
		}
	}
	return false
}

// anyPlacementNear reports whether any of the instance transforms maps the
// cell-local box into the work window. Used to prune whole cell-definition
// tasks: a definition none of whose instances land near the dirty region
// cannot contribute a claimed violation.
func (rp *rulePlan) anyPlacementNear(localBox geom.Rect, insts []geom.Transform) bool {
	if localBox.Empty() {
		return false
	}
	for _, t := range insts {
		if rp.nearWork(t.ApplyRect(localBox)) {
			return true
		}
	}
	return false
}

// deltaPlan is one delta check's per-rule classification plus the baseline
// violations the retained stream draws from.
type deltaPlan struct {
	rules    map[string]*rulePlan
	baseline []rules.Violation // shared with the session; read-only
}

// of returns the rule's plan; nil means full (unplanned rules own their
// violations like a normal run).
func (p *deltaPlan) of(id string) *rulePlan {
	if p == nil {
		return nil
	}
	return p.rules[id]
}

// restrictFor returns the rule's plan only when it runs restricted — the
// hook the executors use to prune rows, cells, and kernel member lists.
func (e *Engine) restrictFor(id string) *rulePlan {
	rp := e.delta.of(id)
	if rp != nil && rp.mode == deltaRestrict {
		return rp
	}
	return nil
}

// mergeDelta replaces the restricted rules' out-of-claim violations with the
// baseline's, producing the cold multiset. Runs before sortViolations.
func (e *Engine) mergeDelta(rep *Report) {
	if e.delta == nil {
		return
	}
	kept := rep.Violations[:0]
	for _, v := range rep.Violations {
		if rp := e.delta.of(v.Rule); rp != nil && rp.mode == deltaRestrict && !rp.claims(v.Marker.Box) {
			continue
		}
		kept = append(kept, v)
	}
	rep.Violations = kept
	failed := make(map[string]bool, len(rep.Failures))
	for _, f := range rep.Failures {
		failed[f.Rule] = true
	}
	for _, v := range e.delta.baseline {
		rp := e.delta.of(v.Rule)
		if rp == nil || rp.mode == deltaFull || failed[v.Rule] {
			continue
		}
		if rp.mode == deltaSkip || !rp.claims(v.Marker.Box) {
			rep.Violations = append(rep.Violations, v)
		}
	}
}

// LayerRegion names a dirty region of one layer for Session.Invalidate. An
// empty Rects list marks the whole layer dirty.
type LayerRegion struct {
	Layer layout.Layer
	Rects []geom.Rect
}

// sessionBaseline is the last successful check's result, the retained-stream
// source for the next delta check. One slot: delta checks chain off the most
// recent full or delta result for the same deck.
type sessionBaseline struct {
	deckIDs    []string
	violations []rules.Violation
	failed     map[string]bool
}

// SessionStats is a point-in-time snapshot of a session's resident-state
// footprint and check traffic, served by the odrcd stats endpoint.
type SessionStats struct {
	Geocache       geocache.Stats `json:"geocache"`
	ResidentLayers int            `json:"resident_layers"`
	ResidentBytes  int64          `json:"resident_bytes"`
	// FullChecks counts Session.Check calls; DeltaChecks counts
	// Session.DeltaCheck calls, split into planned incremental runs and
	// full-check fallbacks.
	FullChecks         int64 `json:"full_checks"`
	DeltaChecks        int64 `json:"delta_checks"`
	DeltaPlanned       int64 `json:"delta_planned"`
	DeltaFallbacks     int64 `json:"delta_fallbacks"`
	DeviceDeltaUploads int64 `json:"device_delta_uploads"`
}

// DeltaInfo reports how a DeltaCheck executed. When Planned is false the
// call fell back to a full check (Reason says why) — the report is still
// correct, just not incremental.
type DeltaInfo struct {
	Planned         bool   `json:"planned"`
	Reason          string `json:"reason,omitempty"`
	RulesSkipped    int    `json:"rules_skipped"`
	RulesRestricted int    `json:"rules_restricted"`
	RulesFull       int    `json:"rules_full"`
}

// Edit applies in-place layout edits to the session's layout and records the
// resulting dirty regions for the next (delta or full) check. The resident
// caches are invalidated lazily at the next check, when the deck — and hence
// the guard distance — is known.
func (s *Session) Edit(ctx context.Context, edits []layout.Edit) ([]layout.LayerDirty, error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	defer s.unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	dirty, err := s.lo.ApplyEdits(edits)
	if err != nil {
		return nil, err
	}
	for i := range dirty {
		s.markDirty(dirty[i].Layer, dirty[i].Rects, false)
	}
	return dirty, nil
}

// Invalidate marks regions of the session's resident geometry dirty: cached
// flattens, packs, MBR tables, row partitions, and device-resident edge
// buffers covering the regions are refreshed by the next check, which only
// re-derives the partition rows the regions (dilated by the deck's maximum
// interaction reach) intersect. A region with no rects dirties its whole
// layer. With no regions at all the call is a no-op and returns immediately
// without taking the session lock. For callers that mutate the layout
// through means the session cannot see (direct mutation rather than Edit);
// Edit records its own regions.
func (s *Session) Invalidate(ctx context.Context, regions ...LayerRegion) error {
	if len(regions) == 0 {
		return nil
	}
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.unlock()
	if s.closed {
		return ErrSessionClosed
	}
	for _, reg := range regions {
		s.markDirty(reg.Layer, reg.Rects, len(reg.Rects) == 0)
	}
	return nil
}

// InvalidateAll drops every piece of resident state — caches, device
// buffers, the delta baseline — so the next check is cold.
func (s *Session) InvalidateAll(ctx context.Context) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.geo.cache != nil {
		s.geo.cache.Invalidate()
	}
	s.smu.Lock()
	pc := s.pc
	s.smu.Unlock()
	if pc != nil {
		s.freeResident(pc, nil)
	}
	s.baseline = nil
	s.pending = nil
	s.pendingFull = nil
	return nil
}

// markDirty records pending dirty rects for a layer (session lock held).
func (s *Session) markDirty(l layout.Layer, rects []geom.Rect, whole bool) {
	if whole {
		if s.pendingFull == nil {
			s.pendingFull = make(map[layout.Layer]bool)
		}
		s.pendingFull[l] = true
		return
	}
	live := false
	for _, r := range rects {
		if !r.Empty() {
			live = true
			break
		}
	}
	if !live {
		return
	}
	if s.pending == nil {
		s.pending = make(map[layout.Layer][]geom.Rect)
	}
	for _, r := range rects {
		if !r.Empty() {
			s.pending[l] = append(s.pending[l], r)
		}
	}
}

// applyPending pushes the session's accumulated dirty regions into the
// resident caches: per dirty layer, a region-scoped cache invalidation
// (dirty rects dilated by the deck's maximum reach) that patches the layer's
// record in place, and a matching partial free of the layer's device-resident
// edge buffer so the next bind uploads only the re-queried tail. Whole-layer
// dirt — and layers the cache cannot patch, which includes every layer of a
// session running with budgets or a fault injector — falls back to full
// invalidation and a full buffer free, so the per-upload budget charge and
// the allocator fault site fire exactly as in batch.
//
// It runs inside the check that consumes the edits, as host phase
// "delta:patch" of rep (advancing the modeled host clock when pc is the
// session's device context), so the patch is part of the check's measured
// wall; checks with nothing pending record no phase. Session lock held, no
// lookup in flight — the geocache patch contract; pending state is consumed.
func (s *Session) applyPending(deck rules.Deck, rep *Report, pc *parCtx) {
	if len(s.pending) == 0 && len(s.pendingFull) == 0 {
		return
	}
	if pc != nil {
		_ = pc.hostPhase(rep, "delta:patch", func() error { s.patchPending(deck, pc); return nil })
		return
	}
	stop := rep.Profile.Phase("delta:patch")
	s.patchPending(deck, nil)
	stop()
}

// patchPending is applyPending's body: one InvalidateRegion (dirty rects
// dilated by the deck's maximum reach) and one device-buffer free per dirty
// layer, in layer order.
func (s *Session) patchPending(deck rules.Deck, pc *parCtx) {
	layers := make([]layout.Layer, 0, len(s.pending)+len(s.pendingFull))
	for l := range s.pending {
		layers = append(layers, l)
	}
	for l := range s.pendingFull {
		layers = append(layers, l)
	}
	slices.Sort(layers)
	layers = slices.Compact(layers)
	guard := deck.MaxReach()
	for _, l := range layers {
		if s.pendingFull[l] || s.geo.cache == nil {
			if s.geo.cache != nil {
				s.geo.cache.Invalidate(l)
			}
			if pc != nil {
				s.freeResident(pc, []layout.Layer{l})
			}
			continue
		}
		rects := make([]geom.Rect, len(s.pending[l]))
		for i, r := range s.pending[l] {
			rects[i] = r.Expand(guard)
		}
		stop := s.opts.Trace.Begin(trace.TrackGeocache, "", "patch:"+layerKey(l), "geocache")
		out := s.geo.cache.InvalidateRegion(l, guard, s.opts.PartitionAlg, rects)
		stop(trace.Arg{Key: "segmented", Val: out.Segmented},
			trace.Arg{Key: "rows_requeried", Val: out.RowsDirty},
			trace.Arg{Key: "polys_replaced", Val: out.PolysRequeried})
		if pc != nil {
			if out.Segmented {
				s.partialFreeResident(pc, l, out.KeptEdgeBytes)
			} else {
				s.freeResident(pc, []layout.Layer{l})
			}
		}
	}
	s.pending = nil
	s.pendingFull = nil
}

// partialFreeResident frees the stale suffix of a layer's device-resident
// edge buffer, keeping keptBytes resident; the next bindEdges uploads only
// the delta. Session lock held.
func (s *Session) partialFreeResident(pc *parCtx, l layout.Layer, keptBytes int64) {
	for _, b := range pc.resident {
		if b.layer != l {
			continue
		}
		if keptBytes <= 0 || keptBytes >= b.bytes {
			s.freeResident(pc, []layout.Layer{l})
			return
		}
		pc.io.WaitEvent(pc.cs.RecordEvent())
		pc.io.FreeAsync(b.bytes - keptBytes)
		b.bytes = keptBytes
		b.partial = true
		b.mbr = nil // derived table is stale with the geometry
		return
	}
}

// updateBaseline stores a successful check's result as the session's delta
// baseline. Session lock held.
func (s *Session) updateBaseline(deck rules.Deck, rep *Report) {
	b := &sessionBaseline{
		deckIDs:    make([]string, len(deck)),
		violations: append([]rules.Violation(nil), rep.Violations...),
	}
	for i, r := range deck {
		b.deckIDs[i] = r.ID
	}
	if len(rep.Failures) > 0 {
		b.failed = make(map[string]bool, len(rep.Failures))
		for _, f := range rep.Failures {
			b.failed[f.Rule] = true
		}
	}
	s.baseline = b
}

// deltaFallbackReason returns why a delta check cannot run incrementally
// ("" when it can). Budgets and fault injection change which rules fail —
// failure sets are part of the report, so an incremental run under either
// could diverge from a cold one; both force the fallback.
func (s *Session) deltaFallbackReason(deck rules.Deck) string {
	switch {
	case s.baseline == nil:
		return "no baseline check"
	case s.opts.Faults != nil:
		return "fault injection active"
	case s.opts.Budgets != (budget.Limits{}):
		return "resource budgets active"
	case s.geo.cache == nil:
		return "geometry cache disabled"
	case s.opts.DisablePruning:
		return "hierarchy pruning disabled"
	}
	if len(s.baseline.deckIDs) != len(deck) {
		return "deck changed since baseline"
	}
	for i, r := range deck {
		if s.baseline.deckIDs[i] != r.ID {
			return "deck changed since baseline"
		}
	}
	return ""
}

// planDelta classifies every deck rule against the pending dirty regions.
// Session lock held; pending state is still intact (the check applies it
// afterwards, sharing the same snapshot).
func (s *Session) planDelta(deck rules.Deck) (*deltaPlan, DeltaInfo) {
	plan := &deltaPlan{rules: make(map[string]*rulePlan, len(deck)), baseline: s.baseline.violations}
	info := DeltaInfo{Planned: true}
	for _, r := range deck {
		layers := []layout.Layer{r.Layer}
		switch r.Kind {
		case rules.Enclosure, rules.Coverage, rules.MinOverlap:
			layers = append(layers, r.Outer)
		}
		full := s.baseline.failed[r.ID]
		var dirty []geom.Rect
		for _, l := range layers {
			if s.pendingFull[l] {
				full = true
			}
			dirty = append(dirty, s.pending[l]...)
		}
		rp := &rulePlan{}
		switch {
		case full:
			rp.mode = deltaFull
		case len(dirty) == 0:
			rp.mode = deltaSkip
		case r.Kind == rules.Spacing || r.Kind == rules.Width ||
			r.Kind == rules.Area || r.Kind == rules.Rectilinear:
			rp.mode = deltaRestrict
			reach := r.Reach()
			rp.claim = make([]geom.Rect, len(dirty))
			rp.work = make([]geom.Rect, len(dirty))
			for i, d := range dirty {
				rp.claim[i] = d.Expand(reach)
				rp.work[i] = rp.claim[i].Expand(reach)
			}
		default:
			rp.mode = deltaFull
		}
		plan.rules[r.ID] = rp
		switch rp.mode {
		case deltaSkip:
			info.RulesSkipped++
		case deltaRestrict:
			info.RulesRestricted++
		default:
			info.RulesFull++
		}
	}
	return plan, info
}

// DeltaCheck runs deck incrementally against the session's layout: rules
// untouched by the dirty regions recorded since the last check are skipped
// (their baseline violations retained), restrictable rules re-check only the
// dirty neighborhood, and the merged report is byte-identical (canonical
// JSON) to a cold full check of the edited layout. When incremental
// execution is unsafe — no baseline, a changed deck, active fault injection
// or budgets — it falls back to a full check; DeltaInfo says which happened.
func (s *Session) DeltaCheck(ctx context.Context, deck rules.Deck) (*Report, DeltaInfo, error) {
	if err := s.lock(ctx); err != nil {
		return nil, DeltaInfo{}, err
	}
	defer s.unlock()
	if s.closed {
		return nil, DeltaInfo{}, ErrSessionClosed
	}
	// Presence spans the whole check, like Session.Check.
	defer pool.EnterCtx(ctx)()
	e := New(s.opts)
	if err := e.AddRules(deck...); err != nil {
		return nil, DeltaInfo{}, err
	}
	deck = e.Deck() // IDs assigned
	s.stats.DeltaChecks++
	if reason := s.deltaFallbackReason(deck); reason != "" {
		s.stats.DeltaFallbacks++
		rep, err := s.runFull(ctx, e, deck)
		return rep, DeltaInfo{Planned: false, Reason: reason}, err
	}
	plan, info := s.planDelta(deck)
	e.delta = plan
	rep, err := e.checkWith(ctx, s.lo, s)
	if err != nil {
		s.baseline = nil // see runFull
		return nil, DeltaInfo{}, err
	}
	s.stats.DeltaPlanned++
	s.stats.DeviceDeltaUploads += rep.Stats.DeviceDeltaUploads
	s.updateBaseline(deck, rep)
	return rep, info, nil
}

// runFull executes a full check updating session dirty/baseline state.
// Session lock held.
func (s *Session) runFull(ctx context.Context, e *Engine, deck rules.Deck) (*Report, error) {
	rep, err := e.checkWith(ctx, s.lo, s)
	if err != nil {
		// The failed check may already have consumed the pending dirt; the
		// old baseline would then pass for current on rules the next delta
		// plan skips.
		s.baseline = nil
		return nil, err
	}
	s.updateBaseline(deck, rep)
	return rep, nil
}

// StatsSnapshot returns the session's resident-state footprint and check
// traffic. It queues behind a running check on the session lock; pass a
// deadline-carrying ctx to bound the wait.
func (s *Session) StatsSnapshot(ctx context.Context) (SessionStats, error) {
	if err := s.lock(ctx); err != nil {
		return SessionStats{}, err
	}
	defer s.unlock()
	if s.closed {
		return SessionStats{}, ErrSessionClosed
	}
	out := s.stats
	if s.geo.cache != nil {
		out.Geocache = s.geo.cache.Stats()
	}
	s.smu.Lock()
	pc := s.pc
	s.smu.Unlock()
	if pc != nil {
		for _, b := range pc.resident {
			out.ResidentLayers++
			out.ResidentBytes += b.bytes
		}
	}
	return out, nil
}

// localIntraMBR is the union of the cell's own polygons' boxes on the layer —
// the extent an intra-polygon definition check can mark.
func localIntraMBR(c *layout.Cell, l layout.Layer) geom.Rect {
	box := geom.EmptyRect()
	for _, pi := range c.LocalPolyIndex(l) {
		box = box.Union(c.Polys[pi].Shape.MBR())
	}
	return box
}
