package core

import (
	"context"
	"slices"

	"opendrc/internal/budget"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
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
// the violations of the rule's record (record.go) everywhere else:
//
//   - U   = union of dirty rects on the rule's input layers (undilated)
//   - C_r = U dilated by the rule's reach — the CLAIM region. Any violation
//     whose marker box center lies in C_r is re-derived by the delta run;
//     any whose center lies outside is provably unchanged and is retained
//     from the record. (The marker box of a pair violation lies between
//     the two edges, both within reach of each other, and an intra-polygon
//     marker lies in its polygon's box, so a violation involving edited
//     geometry — which is inside U — has its whole box, center included,
//     inside C_r. The center predicate is evaluated on the same global box
//     on both sides, so claimed and retained partition the cold result
//     exactly.) An enclosure rule's claim also takes in the neighbourhood
//     of every via whose box meets U dilated by the reach: the via's box
//     dilated by the reach (rulePlan.restrict says why).
//   - W_r = C_r dilated by the reach again — the WORK window. Geometry whose
//     expanded MBR misses W_r cannot produce a violation centered in C_r.
//     A delta run therefore checks only the polygons a hierarchy range query
//     over W_r returns (rulePlan.windowPolys), with the executors of the
//     full run or, for enclosure, its candidate query — except sequential
//     spacing, whose violations name the LCA definition a range query
//     cannot give: it prunes cell definitions and their rows to W_r's
//     neighborhood instead.
//
// The merged stream (claimed ∪ retained) is the same violation multiset a
// cold full check of the edited layout produces; every report leaves the
// engine in the canonical total order (Report.canonicalize), so delta reports
// are byte-identical to cold reports. Rules whose record is current skip
// execution entirely (its violations are retained wholesale); every other
// rule one batch of rect dirt behind runs restricted, whatever its kind.
// Rules behind whole-layer dirt, and rules whose record is older than the
// pending dirt, re-run in full, which is trivially identical.

// planMode is how one rule of a session check runs.
type planMode uint8

const (
	planFull     planMode = iota // execute completely and re-record
	planReplay                   // plain check, record current: replay violations, Stats and device commands
	planSkip                     // delta check, record current: retain its violations, device-silent
	planRestrict                 // delta check, record one batch behind: run restricted to W, claim inside C, retain the rest
)

// rulePlan is one rule's classification against its record, with the
// claim/work regions of a restricted run.
type rulePlan struct {
	mode  planMode
	key   ruleKey
	vers  [2]uint64   // Session.ver of the rule's Inputs now: the stamp of what this check commits
	rec   *ruleRecord // the record replayed, retained or restricted against
	claim []geom.Rect // C_r
	work  []geom.Rect // W_r
}

// restrict sets the claim and work regions of a restricted run of r over
// the undilated dirty rects. The claim is the rects dilated by the rule's
// reach — and, for enclosure, also every via within that dilation dilated
// by the reach in turn. A via whose candidate metal changed re-picks its
// best candidate, and its new markers can land anywhere within reach of the
// via, on its far side too. Dirt that covers each changed polygon's whole
// box — Edit's, and Invalidate's once widened — covers any via such a
// polygon encloses, so the dilated rects hold those markers already; dirt
// narrower than that (the strip of metal that disappeared) would not, for a
// via wider than twice the reach, and the neighbourhoods keep enclosure
// exact under it too. The work window is the claim dilated by the reach.
func (rp *rulePlan) restrict(lo *layout.Layout, r rules.Rule, dirty []geom.Rect) {
	reach := r.Reach()
	rp.claim = make([]geom.Rect, len(dirty))
	for i, d := range dirty {
		rp.claim[i] = d.Expand(reach)
	}
	if r.Kind == rules.Enclosure {
		for _, c := range rp.claim[:len(dirty)] {
			vias, _ := lo.QueryLayer(r.Layer, c)
			for _, pp := range vias {
				rp.claim = append(rp.claim, pp.Shape.MBR().Expand(reach))
			}
		}
	}
	rp.work = make([]geom.Rect, len(rp.claim))
	for i, c := range rp.claim {
		rp.work[i] = c.Expand(reach)
	}
}

// claims reports whether the rule's delta run owns a violation with this
// marker box: the box center lies in the claim region. The same predicate
// filters retained record violations, so the two streams partition.
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

// windowPolys returns, each once, the layer's polygons whose box meets the
// work window, with their boxes: one hierarchy range query per work rect.
// The query's hit test is nearWork's, box.Overlaps(rect), so a polygon rect k
// returns that an earlier rect also meets was returned by that rect already
// and is dropped here; a polygon listed twice would pair with itself.
func (rp *rulePlan) windowPolys(lo *layout.Layout, l layout.Layer) ([]layout.PlacedPoly, []geom.Rect) {
	var polys []layout.PlacedPoly
	var boxes []geom.Rect
	for k, w := range rp.work {
		found, _ := lo.QueryLayer(l, w)
		for _, pp := range found {
			box := pp.Shape.MBR()
			if slices.ContainsFunc(rp.work[:k], box.Overlaps) {
				continue
			}
			polys = append(polys, pp)
			boxes = append(boxes, box)
		}
	}
	return polys, boxes
}

// anyPlacementNear reports whether any of the instance transforms maps the
// cell-local box into the work window. Sequential spacing uses it to prune
// whole cell-definition tasks: a definition none of whose instances land near
// the dirty region cannot contribute a claimed violation.
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

// checkPlan is one session check's per-rule classification, by rule value
// (two deck rules may share an ID, never a key). A nil plan — a batch run, or
// a session that keeps no records — executes every rule and records nothing.
type checkPlan struct {
	delta bool // an incremental DeltaCheck: current records skip instead of replaying
	rules map[ruleKey]*rulePlan
}

// of returns the rule's plan (nil under a nil plan).
func (p *checkPlan) of(r rules.Rule) *rulePlan {
	if p == nil {
		return nil
	}
	return p.rules[keyOf(r)]
}

// executes reports whether any rule of the deck runs an executor — whether
// the check needs the instance enumeration at all.
func (p *checkPlan) executes(deck rules.Deck) bool {
	for _, r := range deck {
		if rp := p.of(r); rp == nil || rp.mode == planFull || rp.mode == planRestrict {
			return true
		}
	}
	return false
}

// restrictFor returns the rule's plan only when it runs restricted — the
// hook that sends a run to its work window, or makes a sequential spacing run
// prune cell definitions and rows.
func (e *Engine) restrictFor(r rules.Rule) *rulePlan {
	rp := e.plan.of(r)
	if rp != nil && rp.mode == planRestrict {
		return rp
	}
	return nil
}

// mergeDelta turns a restricted run's output, the violations of its child
// report rep, into the rule's cold multiset: of what the run emitted only the
// claimed survive, and the record supplies everything outside the claim. The
// merged slice is allocated once, at its exact size.
func mergeDelta(rep *Report, rp *rulePlan) {
	claimed := slices.DeleteFunc(rep.Violations, func(v rules.Violation) bool { return !rp.claims(v.Marker.Box) })
	n := len(claimed)
	for _, v := range rp.rec.violations {
		if !rp.claims(v.Marker.Box) {
			n++
		}
	}
	out := append(make([]rules.Violation, 0, n), claimed...)
	for _, v := range rp.rec.violations {
		if !rp.claims(v.Marker.Box) {
			out = append(out, v)
		}
	}
	rep.Violations = out
}

// LayerRegion names a dirty region of one layer for Session.Invalidate. An
// empty Rects list marks the whole layer dirty.
type LayerRegion struct {
	Layer layout.Layer
	Rects []geom.Rect
}

// SessionStats is a point-in-time snapshot of a session's resident-state
// footprint and check traffic, served by the odrcd stats endpoint.
type SessionStats struct {
	Geocache       geocache.Stats `json:"geocache"`
	ResidentLayers int            `json:"resident_layers"`
	ResidentBytes  int64          `json:"resident_bytes"`
	// FullChecks counts Session.Check calls; DeltaChecks counts
	// Session.DeltaCheck calls, split into planned incremental runs and
	// full-check fallbacks. DeviceDeltaUploads counts partial refreshes of
	// resident edge buffers, in either kind of check: they follow a patch,
	// which only a check reading the layer through the cache makes.
	FullChecks         int64 `json:"full_checks"`
	DeltaChecks        int64 `json:"delta_checks"`
	DeltaPlanned       int64 `json:"delta_planned"`
	DeltaFallbacks     int64 `json:"delta_fallbacks"`
	DeviceDeltaUploads int64 `json:"device_delta_uploads"`
	// RulesReplayed counts rules a plain check answered from their record,
	// RulesExecuted rules that ran an executor (in full or restricted, in
	// either kind of check); ResultBytes is the records' retained size.
	RulesReplayed int64 `json:"rules_replayed"`
	RulesExecuted int64 `json:"rules_executed"`
	ResultBytes   int64 `json:"result_bytes"`
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
// caches are patched lazily, by the first check that reads the layer through
// them (applyPending), when the deck — and hence the guard distance — is
// known.
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
// buffers covering the regions are refreshed by the first check that reads
// the layer through the cache, which only re-derives the partition rows the
// regions (dilated by the deck's maximum interaction reach) intersect. A
// region with no rects dirties its whole layer. With no regions at all the
// call is a no-op and returns immediately
// without taking the session lock. For callers that mutate the layout
// through means the session cannot see (direct mutation rather than Edit);
// Edit records its own regions. The rects must cover every edge that
// appeared or disappeared and, on a layer an enclosure rule reads as its
// outer metal, all of every deleted polygon: a via it held may now sit in
// another metal or in none, far from any deleted edge. They need not cover
// a changed polygon's whole box otherwise: Invalidate widens each rect
// itself (widen).
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
		s.markDirty(reg.Layer, s.widen(reg.Layer, reg.Rects), len(reg.Rects) == 0)
	}
	return nil
}

// widen grows each Invalidate rect on layer l to the box of every current
// polygon of the layer it meets and to the marker box of every recorded
// violation, of a rule reading the layer, it meets. A delta check's
// restricted area, rectilinear and custom runs claim the dirt dilated by
// their reach, and their markers are whole polygon boxes, so dirt covering
// only part of a changed polygon would leave its new marker — or its
// record's old one, when it shrank or went — unclaimed. Session lock held.
func (s *Session) widen(l layout.Layer, rects []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		w := s.records.widen(l, r)
		found, _ := s.lo.QueryLayer(l, r)
		for _, pp := range found {
			w = w.Union(pp.Shape.MBR())
		}
		out = append(out, w)
	}
	return out
}

// InvalidateAll drops every piece of resident state — caches, device
// buffers, rule records, the instance enumeration — so the next check is
// cold. It is the call for a mutation that adds, moves or deletes a
// reference, which no dirty region describes.
func (s *Session) InvalidateAll(ctx context.Context) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.geo.Invalidate()
	s.smu.Lock()
	pc := s.pc
	s.smu.Unlock()
	if pc != nil {
		pc.freeResident()
	}
	s.records.reset()
	s.placements = nil
	s.pending = dirtyRegions{}
	s.dirt = dirtyRegions{}
	s.cached = nil
	return nil
}

// dirtyRegions is undilated dirt per layer: rects, or the whole layer.
type dirtyRegions struct {
	rects map[layout.Layer][]geom.Rect
	whole map[layout.Layer]bool
}

// has reports whether the layer has dirt.
func (d *dirtyRegions) has(l layout.Layer) bool {
	return len(d.rects[l]) > 0 || d.whole[l]
}

// add records dirt on a layer; empty rects add nothing.
func (d *dirtyRegions) add(l layout.Layer, rects []geom.Rect, whole bool) {
	if whole {
		if d.whole == nil {
			d.whole = make(map[layout.Layer]bool)
		}
		d.whole[l] = true
	}
	for _, r := range rects {
		if !r.Empty() {
			if d.rects == nil {
				d.rects = make(map[layout.Layer][]geom.Rect)
			}
			d.rects[l] = append(d.rects[l], r)
		}
	}
}

// drop forgets the layer's dirt.
func (d *dirtyRegions) drop(l layout.Layer) {
	delete(d.rects, l)
	delete(d.whole, l)
}

// markDirty records dirt on a layer (session lock held). The first dirt a
// layer takes after a check opens its pending batch and advances its version
// — which is all it takes to put every record that read the layer behind;
// more dirt before the next check joins the same batch. The geometry cache's
// dirt accumulates across checks, and only for a layer the cache may hold a
// flatten of: any other layer's next flatten reads the edited layout anyway.
func (s *Session) markDirty(l layout.Layer, rects []geom.Rect, whole bool) {
	open := s.pending.has(l)
	s.pending.add(l, rects, whole)
	if s.cached[l] {
		s.dirt.add(l, rects, whole)
	}
	if !open && s.pending.has(l) {
		if s.ver == nil {
			s.ver = make(map[layout.Layer]uint64)
		}
		s.ver[l]++
	}
}

// applyPending consumes the pending batch, which planned this check, and
// brings the geometry cache up to date for the rules that read it: each
// layer a rule of e reads through the cache (Engine.readsCache) is marked
// cached and, when it has dirt, patched — a region-scoped cache invalidation
// (the dirt's rects dilated by the deck's maximum reach) that patches the
// layer's record in place, and a matching partial free of the layer's
// device-resident edge buffer so the next bind uploads only the re-queried
// tail. Whole-layer dirt — and layers the cache cannot patch, which includes
// every layer of a session running with budgets or a fault injector — falls
// back to full invalidation and a full buffer free, so the per-upload budget
// charge and the allocator fault site fire exactly as in batch. Dirt on a
// layer no rule of e reads that way waits, accumulating, for a check that
// does: a delta check, whose restricted runs query their work window,
// patches nothing.
//
// It runs before the check's rules and its prefetch, as host phase
// "delta:patch" of rep (advancing the modeled host clock when pc is the
// session's device context), so the patch is part of the measured wall of
// the check that needs it; a check that patches nothing records no phase.
// Session lock held, no lookup in flight — the geocache patch contract.
func (s *Session) applyPending(e *Engine, rep *Report, pc *parCtx) {
	s.pending = dirtyRegions{}
	var layers []layout.Layer
	for _, r := range e.deck {
		if !e.readsCache(r) {
			continue
		}
		if s.cached == nil {
			s.cached = make(map[layout.Layer]bool)
		}
		s.cached[r.Layer] = true
		if s.dirt.has(r.Layer) {
			layers = append(layers, r.Layer)
		}
	}
	if len(layers) == 0 {
		return
	}
	slices.Sort(layers)
	layers = slices.Compact(layers)
	_ = hostPhase(rep, pc, "delta:patch", func() error { s.patch(layers, e.deck.MaxReach(), pc); return nil })
}

// patch is applyPending's body: per dirty layer, in layer order, one
// InvalidateRegion over every rect the layer's dirt gathered since its last
// patch (dilated by guard) and one device-buffer free.
func (s *Session) patch(layers []layout.Layer, guard int64, pc *parCtx) {
	for _, l := range layers {
		rects := s.dirt.rects[l]
		whole := s.dirt.whole[l]
		s.dirt.drop(l)
		if whole {
			s.geo.Invalidate(l)
			if pc != nil {
				pc.freeResident(l)
			}
			continue
		}
		wide := make([]geom.Rect, len(rects))
		for i, r := range rects {
			wide[i] = r.Expand(guard)
		}
		stop := s.opts.Trace.Begin(trace.TrackGeocache, "", "patch:"+layerKey(l), "geocache")
		out := s.geo.InvalidateRegion(l, guard, partition.Pigeonhole, wide)
		stop(trace.Arg{Key: "segmented", Val: out.Segmented},
			trace.Arg{Key: "rows_requeried", Val: out.RowsDirty},
			trace.Arg{Key: "polys_replaced", Val: out.PolysRequeried})
		if pc != nil {
			if out.Segmented {
				pc.partialFreeResident(l, out.KeptEdgeBytes)
			} else {
				pc.freeResident(l)
			}
		}
	}
}

// partialFreeResident frees the stale suffix of a layer's device-resident
// edge buffer, keeping keptBytes resident; the next bindEdges uploads only
// the delta. A patch that displaced nothing (an insert outside every row)
// keeps the whole buffer and frees nothing. Session lock held.
func (pc *parCtx) partialFreeResident(l layout.Layer, keptBytes int64) {
	for _, b := range pc.resident {
		if b.layer != l {
			continue
		}
		if keptBytes <= 0 || keptBytes > b.bytes {
			pc.freeResident(l)
			return
		}
		if keptBytes < b.bytes {
			pc.io.WaitEvent(pc.cs.RecordEvent())
			pc.io.FreeAsync(b.bytes - keptBytes)
			b.bytes = keptBytes
		}
		b.partial = true
		b.table = false // derived table is stale with the geometry
		return
	}
}

// recordsOff returns why the session keeps no rule records — and so plans
// nothing: every check executes every rule, a delta check falls back — or ""
// when it keeps them. Budgets and fault injection change which rules fail,
// and failure sets are part of the report, so a replayed or incremental run
// under either could diverge from a cold one.
func (s *Session) recordsOff() string {
	switch {
	case s.opts.Faults != nil:
		return "fault injection active"
	case s.opts.Budgets != (budget.Limits{}):
		return "resource budgets active"
	}
	return ""
}

// planCheck classifies every deck rule against its record and the pending
// dirty regions. On each layer a rule reads, its record is current (stamped
// with the layer's version), exactly the pending batch behind (stamped one
// below, with that batch still pending), or stale. A plain check replays
// current full records and executes the rest; a delta check skips current
// records, restricts every rule one rect-only batch behind, and executes the
// rest — reported as not planned when no rule had a record to
// go by. Session lock held; the pending batch is still intact (the check
// consumes it afterwards, in applyPending).
func (s *Session) planCheck(deck rules.Deck, delta bool) (*checkPlan, DeltaInfo) {
	plan := &checkPlan{rules: make(map[ruleKey]*rulePlan, len(deck))}
	var info DeltaInfo
	for _, r := range deck {
		rp := &rulePlan{key: keyOf(r)}
		rp.rec = s.records.get(rp.key)
		behind, whole, stale := false, false, rp.rec == nil
		var dirty []geom.Rect
		for i, l := range r.Inputs() {
			rp.vers[i] = s.ver[l]
			switch {
			case stale || rp.rec.vers[i] == rp.vers[i]:
			case rp.rec.vers[i]+1 == rp.vers[i] && s.pending.has(l):
				behind = true
				whole = whole || s.pending.whole[l]
				dirty = append(dirty, s.pending.rects[l]...)
			default:
				stale = true
			}
		}
		if !stale {
			info.Planned = true
		}
		switch {
		case stale:
		case !behind && delta:
			rp.mode = planSkip
		case !behind:
			if rp.rec.full && !s.forceExec {
				rp.mode = planReplay
			}
		case delta && !whole:
			rp.mode = planRestrict
			rp.restrict(s.lo, r, dirty)
		}
		plan.rules[rp.key] = rp
		switch rp.mode {
		case planSkip:
			info.RulesSkipped++
		case planRestrict:
			info.RulesRestricted++
		case planFull:
			info.RulesFull++
		}
	}
	if !info.Planned {
		info = DeltaInfo{Reason: "no baseline check"}
	}
	plan.delta = delta && info.Planned
	return plan, info
}

// DeltaCheck runs deck incrementally against the session's layout: rules
// whose record is current — untouched by the dirty regions recorded since it
// was made — are skipped (its violations retained), rules one batch of rect
// dirt behind re-check only the dirty neighborhood, and the merged report is
// byte-identical (canonical JSON) to a cold full check of the edited layout.
// Rules are planned one by one, so the deck may differ from any checked
// before. When incremental execution is unsafe or pointless — active fault
// injection or budgets, no rule of the deck with a record to go by — it
// falls back to a full check; DeltaInfo says which happened.
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
	s.stats.DeltaChecks++
	return s.run(ctx, deck, true)
}

// run plans and executes one check, plain or delta, and books it. Session
// lock held.
func (s *Session) run(ctx context.Context, deck rules.Deck, delta bool) (*Report, DeltaInfo, error) {
	e := New(s.opts)
	if err := e.AddRules(deck...); err != nil {
		return nil, DeltaInfo{}, err
	}
	info := DeltaInfo{Reason: s.recordsOff()}
	if info.Reason == "" {
		e.plan, info = s.planCheck(e.Deck(), delta)
	}
	if delta && !info.Planned {
		s.stats.DeltaFallbacks++
	}
	rep, err := e.checkWith(ctx, s.lo, s)
	if err != nil {
		return nil, DeltaInfo{}, err
	}
	if delta && info.Planned {
		s.stats.DeltaPlanned++
	}
	s.stats.DeviceDeltaUploads += rep.Stats.DeviceDeltaUploads
	s.stats.RulesReplayed += int64(rep.replayed)
	s.stats.RulesExecuted += int64(rep.executed)
	s.opts.Logger.Infof("core: check %s: %d rules, %d replayed, %d executed, %d skipped, host_wall_us=%d modeled_us=%d",
		trace.RequestID(ctx), len(deck), rep.replayed, rep.executed, len(deck)-rep.replayed-rep.executed,
		rep.HostWall.Microseconds(), rep.Modeled.Microseconds())
	return rep, info, nil
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
	out.ResultBytes = s.records.bytes()
	out.Geocache = s.geo.Stats()
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
