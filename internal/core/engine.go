// Package core is OpenDRC's engine: the application layer that schedules
// design rule checks and dispatches them to the algorithm layer. It offers
// the paper's two execution branches: a sequential (CPU) mode that runs
// hierarchical cell-level sweeps with task pruning (Sections IV-C/IV-D), and
// a parallel mode that partitions the layout into independent rows and
// launches edge-based check kernels on the simulated GPU row by row
// (Sections IV-B/IV-E), overlapping host preparation with device execution
// via streams (Section V-C).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/freelist"
	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/infra"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/sweep"
	"opendrc/internal/trace"
)

// Mode selects the execution branch.
type Mode int

// Engine modes.
const (
	Sequential Mode = iota // hierarchical CPU sweeps
	Parallel               // row-partitioned GPU kernels (simulated device)
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Parallel {
		return "parallel"
	}
	return "sequential"
}

// Options configure an Engine. The zero value is a usable sequential engine.
type Options struct {
	Mode   Mode
	Device gpu.Props // parallel mode; zero value selects GTX1660Ti

	// BruteEdgeThreshold is the executor-selection cutoff: rows whose
	// packed edge count is at or below it use the brute-force executor,
	// larger rows use the parallel sweepline ("Depending on the complexity
	// of each polygon or polygon pair, OpenDRC selects either a brute-force
	// executor or a sweepline executor"). Zero selects the default.
	BruteEdgeThreshold int

	// Workers bounds the host worker pool used by the fan-out phases: per
	// rule of the deck (outside a context scheduler), per intra unit in the
	// intra checks and per partition row in the spacing sweep. Values <= 0
	// select GOMAXPROCS. Reports are bit-identical for every worker count:
	// workers write into per-index result slots that merge in a fixed
	// order.
	Workers int

	// Budgets are the run's resource limits (flatten size, packed edges,
	// device pool bytes). A rule that trips a budget becomes a RuleFailure
	// in the report instead of aborting the run. The zero value imposes no
	// limits. The packed-edges budget is charged per *upload* (once per
	// layer) rather than once per rule.
	Budgets budget.Limits

	// Faults is the deterministic fault injector driving the chaos test
	// suite; nil (the production value) is inert.
	Faults *faults.Injector

	// Trace is the run-timeline recorder (nil disables tracing, the
	// zero-cost default). When set, the run records host phase spans, rule
	// lifecycle, geometry-cache traffic, pool task lanes, and — in parallel
	// mode — the simulated device's per-stream timeline, all exportable via
	// trace.Recorder.WriteJSON; a TraceSummary lands on Report.Stats.
	// Reports are bit-identical with tracing on or off.
	Trace *trace.Recorder

	Logger *infra.Logger
}

const defaultBruteEdgeThreshold = 4096

// Engine schedules and runs design rule checks.
type Engine struct {
	opts Options
	deck rules.Deck
	// sweeps and kernelSweeps recycle the row workers' working sets across
	// the engine's rows and rules: the sequential sweepline's and the
	// parallel sweep executor's (DESIGN.md §9).
	sweeps       freelist.List[*sweep.Scratch]
	kernelSweeps freelist.List[*kernels.Scratch]
	// plan is a session check's per-rule classification against the
	// session's rule records (nil for batch runs and sessions that keep none):
	// replay, skip, restrict with claim regions, or execute and re-record.
	plan *checkPlan
}

// New creates an engine.
func New(opts Options) *Engine {
	return &Engine{opts: withDefaults(opts)}
}

// takeScratch pops a recycled working set from l, or allocates one when l
// is empty; the caller puts it back when its row is done.
func takeScratch[T any](l *freelist.List[*T]) *T {
	if s := l.Get(); s != nil {
		return s
	}
	return new(T)
}

// withDefaults fills the options' zero-valued defaults: the executor cutoff
// and the device model.
func withDefaults(opts Options) Options {
	if opts.BruteEdgeThreshold == 0 {
		opts.BruteEdgeThreshold = defaultBruteEdgeThreshold
	}
	if opts.Device.SMs == 0 {
		opts.Device = gpu.GTX1660Ti()
	}
	return opts
}

// newGeoCache builds the geometry cache of a batch run or a session, wiring
// the flatten fault seam and the trace recorder's geocache track into it.
func newGeoCache(opts Options) *geocache.Cache {
	gc := geocache.New(opts.Budgets)
	if inj := opts.Faults; inj != nil {
		gc.SetFaultHook(func(ctx context.Context, l layout.Layer) error {
			return inj.Hit(ctx, faults.SiteFlatten, layerKey(l))
		})
	}
	if rec := opts.Trace; rec != nil {
		gc.SetEventHook(func(ev geocache.Event) {
			result := "miss"
			if ev.Hit {
				result = "hit"
			}
			rec.Instant(trace.TrackGeocache, "", ev.Op+":"+ev.Key, "geocache",
				trace.Arg{Key: "result", Val: result})
		})
	}
	return gc
}

// layerKey is the deterministic fault-injection key of a layer's flatten.
func layerKey(l layout.Layer) string { return fmt.Sprintf("layer#%d", int(l)) }

// AddRules appends validated rules to the deck, assigning sequential IDs to
// anonymous rules.
func (e *Engine) AddRules(rs ...rules.Rule) error {
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			return err
		}
		if r.ID == "" {
			r.ID = fmt.Sprintf("%s#%d", r.String(), len(e.deck))
		}
		e.deck = append(e.deck, r)
	}
	return nil
}

// Deck returns the current rule deck.
func (e *Engine) Deck() rules.Deck { return e.deck }

// Stats aggregates scheduling counters across a check run, exposing the
// effect of the hierarchy pruning and the row partition.
type Stats struct {
	// Hierarchy pruning. ChecksReused counts instance results served by a
	// computation made for another instance of the same definition: each
	// executor that replays a definition's result adds its own rule's
	// instances minus computations, so the total depends on neither deck
	// order, mode, nor batch vs session.
	DefsChecked      int // cell-definition check computations performed
	InstancesEmitted int // instance results replayed from definition memos
	ChecksReused     int

	// Inter-polygon work.
	PairsConsidered int // candidate pairs after MBR sweep
	PairsChecked    int // pairs that reached edge-to-edge checks
	SubtreeQueries  int // hierarchy descents for cross-boundary pairs

	// Parallel mode.
	Rows           int
	KernelLaunches int
	EdgesPacked    int
	BytesCopied    int64

	// Cross-rule geometry reuse. Hits and misses count every flatten/pack
	// request including the rule prefetcher's; misses equal the number of
	// distinct layers computed, so both are deterministic for a fixed deck
	// regardless of worker count or prefetch timing.
	FlattenCacheHits   int64
	FlattenCacheMisses int64
	PackCacheHits      int64
	PackCacheMisses    int64

	// Device residency (parallel mode): layer edge buffers uploaded once,
	// reused by event, and LRU-evicted when the device pool budget would
	// otherwise trip.
	DeviceUploads   int64
	DeviceReuses    int64
	DeviceEvictions int64
	// DeviceDeltaUploads always reads 0: a patched layer's resident buffer
	// is freed whole and re-uploaded. The field stays because the
	// benchmark's ledger (gpu.delta_uploads) compiles against it.
	DeviceDeltaUploads int64

	// Trace is the run's timeline summary (device busy, host/device
	// overlap, per-rule critical path). It holds measured times, so it is
	// excluded from JSON: serialized reports stay bit-identical across
	// worker counts and with tracing on or off.
	Trace *TraceSummary `json:"-"`
}

// add merges s2 into s.
func (s *Stats) add(s2 Stats) {
	s.DefsChecked += s2.DefsChecked
	s.InstancesEmitted += s2.InstancesEmitted
	s.ChecksReused += s2.ChecksReused
	s.PairsConsidered += s2.PairsConsidered
	s.PairsChecked += s2.PairsChecked
	s.SubtreeQueries += s2.SubtreeQueries
	s.Rows += s2.Rows
	s.KernelLaunches += s2.KernelLaunches
	s.EdgesPacked += s2.EdgesPacked
	s.BytesCopied += s2.BytesCopied
	s.FlattenCacheHits += s2.FlattenCacheHits
	s.FlattenCacheMisses += s2.FlattenCacheMisses
	s.PackCacheHits += s2.PackCacheHits
	s.PackCacheMisses += s2.PackCacheMisses
	s.DeviceUploads += s2.DeviceUploads
	s.DeviceReuses += s2.DeviceReuses
	s.DeviceEvictions += s2.DeviceEvictions
}

// reuse books one definition computation whose result serves n instances.
func (s *Stats) reuse(n int) {
	s.DefsChecked++
	s.InstancesEmitted += n
	s.ChecksReused += n - 1
}

// RuleFailure records one rule whose check failed — a panic, an injected
// fault, or a tripped resource budget — without killing the run. The
// failed rule contributes no violations (its partial results are discarded
// so degraded reports stay bit-identical across worker counts); every
// other rule's results are intact.
type RuleFailure struct {
	Rule string // rule ID
	Err  string // failure description
	// Panicked marks failures recovered from a panic; Stack preserves the
	// panicking goroutine's stack (the worker's stack when the panic was
	// recovered through the pool).
	Panicked bool
	Stack    string
	// BudgetExceeded marks failures caused by a resource budget; Budget then
	// carries the tripped budget structurally (resource, limit, demand) so
	// consumers — the JSON report, the odrcd error bodies — need not parse
	// the rendered message.
	BudgetExceeded bool
	Budget         *budget.Error
}

// Report is the result of a check run.
type Report struct {
	Mode       Mode
	Violations []rules.Violation
	Stats      Stats
	// Degraded is true when at least one rule failed; Failures lists them.
	// Violations then cover only the rules that completed.
	Degraded bool
	Failures []RuleFailure
	// Profile breaks the host runtime into phases (Fig. 4).
	Profile *infra.Profiler
	// HostWall is the measured wall-clock time of the whole run.
	HostWall time.Duration
	// Modeled is, for the parallel mode, the modeled end-to-end time on the
	// CPU+GPU platform (host phases measured, device operations from the
	// cost model, overlap from the stream timeline). For the sequential
	// mode it equals HostWall.
	Modeled time.Duration
	// Device exposes the simulated GPU used by the parallel mode (nil in
	// sequential mode) for timeline inspection.
	Device *gpu.Device
	// HostBytes is the host memory the geometry cache holds at the end of
	// the run, by record kind (a session's cache: everything resident).
	HostBytes geocache.Resident

	// Raw per-rule and modeled-host windows behind Stats.Trace and the
	// trace export; unexported — the summary is the public view.
	ruleWindows []ruleWindow
	hostSpans   []modeledSpan
	// How many rules were answered from their record and how many ran an
	// executor — the session's books.
	replayed, executed int
	// segs holds the report's violations as deck rules' runs, in deck order,
	// until canonicalize lays them out by rule ID as Violations.
	segs []segment
	// record is what a deck rule's child report commits to the session (nil
	// when the rule has nothing to commit).
	record *ruleRecord
	// tape is the device work an executing rule's child report records in
	// parallel mode (nil otherwise), replayed when the rule settles.
	tape *gpu.Tape
}

// segment is one deck rule's run of violations; every violation in it
// carries rule. sorted says the run is already in rules.Less order: a
// record's, or an executed rule's sorted at commit. A sorted run may be a
// record's own array, so canonicalize never sorts one in place.
type segment struct {
	rule   string
	vs     []rules.Violation
	sorted bool
}

// endSegment closes a rule's child report: its violations become the rule's
// run.
func (rep *Report) endSegment(rule string, sorted bool) {
	rep.segs = append(rep.segs, segment{rule: rule, vs: rep.Violations, sorted: sorted})
}

// merge folds one deck rule's child report into rep. The check merges its
// children in deck order whatever order they finished in, so its bytes,
// Stats and Failures do not depend on how the rules overlapped.
func (rep *Report) merge(kid *Report) {
	rep.Stats.add(kid.Stats)
	rep.Failures = append(rep.Failures, kid.Failures...)
	rep.Degraded = rep.Degraded || kid.Degraded
	rep.segs = append(rep.segs, kid.segs...)
	rep.ruleWindows = append(rep.ruleWindows, kid.ruleWindows...)
	rep.hostSpans = append(rep.hostSpans, kid.hostSpans...)
	rep.replayed += kid.replayed
	rep.executed += kid.executed
}

// canonicalize lays the rules' runs out as Violations in rules.Less order.
// rules.Less orders by rule ID first, so a canonical report is its rules'
// runs, each sorted, laid out by ID: a run not sorted yet (an executed rule
// with no record to commit, on the rule's own array) is sorted in place, the
// runs are copied once, in ID order, into a slice of their total size, and
// only where two deck rules share an ID — Deck.Validate allows it — is their
// joined run sorted again.
func (rep *Report) canonicalize() {
	segs := rep.segs
	rep.segs = nil
	n := 0
	for _, s := range segs {
		if !s.sorted {
			sortViolations(s.vs)
		}
		n += len(s.vs)
	}
	slices.SortStableFunc(segs, func(a, b segment) int { return strings.Compare(a.rule, b.rule) })
	out := make([]rules.Violation, 0, n)
	for i := 0; i < len(segs); {
		lo, j := len(out), i
		for ; j < len(segs) && segs[j].rule == segs[i].rule; j++ {
			out = append(out, segs[j].vs...)
		}
		if j > i+1 {
			sortViolations(out[lo:])
		}
		i = j
	}
	rep.Violations = out
}

// CountByRule returns violation counts keyed by rule ID.
func (r *Report) CountByRule() map[string]int {
	out := make(map[string]int)
	for _, v := range r.Violations {
		out[v.Rule]++
	}
	return out
}

// Check runs the configured deck against the layout with no deadline.
func (e *Engine) Check(lo *layout.Layout) (*Report, error) {
	return e.CheckContext(context.Background(), lo) //odrc:allow ctxflow — context-free convenience wrapper, delegates to the Context variant
}

// CheckContext runs the configured deck against the layout under ctx.
// Cancellation is honored cooperatively at rule boundaries and inside the
// fan-out loops; a cancelled check returns a nil report and an error
// wrapping ctx.Err() — no partial report escapes. A rule whose check
// panics, trips a budget, or hits an injected fault is recorded as a
// RuleFailure (Report.Degraded) and the remaining rules still run.
func (e *Engine) CheckContext(ctx context.Context, lo *layout.Layout) (*Report, error) {
	return e.checkWith(ctx, lo, nil)
}

// checkWith is CheckContext with optionally session-owned state: a non-nil
// session contributes its resident geometry cache and (parallel mode) its
// persistent device context, so the expensive cross-rule state survives the
// run instead of being rebuilt per check. A nil session is the batch path —
// per-run geometry cache, per-run device. The caller (Session.Check) holds
// the session lock.
func (e *Engine) checkWith(ctx context.Context, lo *layout.Layout, ses *Session) (*Report, error) {
	if err := e.deck.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: check cancelled: %w", err)
	}
	rec := e.opts.Trace
	// The profiler shares the recorder's clock (one timeline for phases and
	// trace events) and reports every completed Phase as a span; the
	// recorder rides the context so the pool traces task lanes.
	rep := &Report{Mode: e.opts.Mode, Profile: infra.NewProfilerWithClock(rec.Clock()),
		segs: make([]segment, 0, len(e.deck)), ruleWindows: make([]ruleWindow, 0, len(e.deck))}
	if rec != nil {
		rep.Profile.OnPhase(func(name string, from, to time.Duration) {
			rec.Span(trace.TrackPhases, "", name, "phase", from, to)
		})
		ctx = trace.WithRecorder(ctx, rec)
	}
	var geo *geocache.Cache
	if ses != nil {
		geo = ses.geo
	} else {
		geo = newGeoCache(e.opts)
	}
	// Session cache counters accumulate across checks; snapshot so the
	// report carries this run's traffic (a warm session reports pure hits).
	cs0 := geo.Stats()
	// On a session device the modeled clock is cumulative; Modeled must be
	// this run's delta, measured from the clock reading at entry.
	var devStart time.Duration
	var launches0 int
	start := rep.Profile.Elapsed()
	var pc *parCtx
	if e.opts.Mode == Parallel {
		if ses != nil {
			pc = ses.deviceCtx()
		} else {
			pc = newParCtx(e.opts, geo, false)
		}
		devStart = pc.dev.HostClock()
		launches0 = pc.dev.KernelCount()
		pc.packed = 0
		rep.Device = pc.dev
		// Device OOM (the device-pool-bytes budget) and injected allocator
		// faults surface through AllocAsync as errors the rule guard converts
		// into RuleFailures.
		if inj := e.opts.Faults; inj != nil {
			pc.dev.SetAllocHook(func(n int64) error {
				return inj.Hit(ctx, faults.SiteAlloc, strconv.FormatInt(n, 10))
			})
		}
	}
	if ses != nil {
		ses.applyPending(e, rep, pc)
	}
	wait := func() {}
	if pc != nil {
		wait = e.prefetch(ctx, lo, geo)
	}
	err := e.runDeck(ctx, lo, rep, ses, pc)
	wait()
	if err != nil {
		return nil, err
	}
	if pc != nil {
		// Return the resident layer buffers to the pool. A persistent
		// (session-owned) context keeps them — that residency across checks
		// is the point of a session; Session.Close frees them the same way.
		if !pc.persistent {
			pc.freeResident()
		}
		pc.cs.Synchronize()
		pc.io.Synchronize()
		// Counted where launches are recorded, so no call site can drift from
		// the timeline (a session's device outlives the check, hence the
		// bracket).
		rep.Stats.KernelLaunches = pc.dev.KernelCount() - launches0
	}
	rep.HostWall = rep.Profile.Elapsed() - start
	if pc == nil {
		rep.Modeled = rep.HostWall
	} else {
		rep.Modeled = pc.dev.HostClock() - devStart
	}
	cs := geo.Stats()
	rep.Stats.FlattenCacheHits = cs.FlattenHits - cs0.FlattenHits
	rep.Stats.FlattenCacheMisses = cs.FlattenMisses - cs0.FlattenMisses
	rep.Stats.PackCacheHits = cs.PackHits - cs0.PackHits
	rep.Stats.PackCacheMisses = cs.PackMisses - cs0.PackMisses
	rep.HostBytes = geo.Resident()
	if rec != nil {
		rep.Stats.Trace = buildTraceSummary(rep)
		exportRunTrace(rec, rep, e.opts)
	}
	rep.canonicalize()
	return rep, nil
}

// runDeck runs the deck in either mode: the Section IV-C pruning is part of
// each executor, so both branches of the paper's flow (Fig. 1) share this
// path and differ only in the executor execRule picks and the clock a rule's
// window reads. Rules are independent tasks, like rows and cell definitions:
// each runs against its own child report, in a fan-out over the deck, and
// the children merge into rep in deck order. A rule runs in two steps.
// Executing it (deckRule) reads only the layout, the geometry cache and the
// device's properties; in parallel mode its device work goes onto its own
// tape. Settling it (settle) replays that tape onto the live streams, takes
// every decision that depends on the rules before it, and judges the rule's
// outcome — strictly in deck order, whichever rule finished executing first,
// so reports, Stats, failures and the device timeline's record sequence do
// not depend on the worker count. Each rule runs under the engine's
// fault-isolation guard: a failing rule degrades the report instead of
// aborting the run, while cancellation aborts between (and inside) rules.
func (e *Engine) runDeck(ctx context.Context, lo *layout.Layout, rep *Report, ses *Session, pc *parCtx) error {
	placements, err := e.instancePlacements(lo, ses, rep, pc)
	if err != nil {
		return err
	}
	// Each rule runs against its own child report, which shares the check's
	// profiler and holds the rule's violations, failures, Stats, segment,
	// window and record. The children and their one-slot segment and window
	// lists are carved from three arrays, not allocated rule by rule.
	n := len(e.deck)
	runs, segs, wins := make([]ruleRun, n), make([]segment, n), make([]ruleWindow, n)
	order := deckOrder{done: make([]bool, n)}
	err = pool.ForEachCtx(trace.WithTask(ctx, "rule"), e.ruleWidth(ctx), n, func(i int) error {
		ru := &runs[i]
		ru.r, ru.rp = e.deck[i], e.plan.of(e.deck[i])
		ru.rep = Report{Profile: rep.Profile, segs: segs[i : i : i+1], ruleWindows: wins[i : i : i+1]}
		if err := e.deckRule(ctx, lo, ru, placements, pc); err != nil {
			return err
		}
		if pc == nil {
			return e.settle(ctx, ru, nil)
		}
		return order.finish(i, func(j int) error { return e.settle(ctx, &runs[j], pc) })
	})
	// Every rule that succeeded commits its record, in deck order, even when
	// the check as a whole is cancelled and returns no report.
	for i := range runs {
		if rec := runs[i].rep.record; rec != nil {
			ses.records.put(rec)
		}
	}
	if err != nil {
		if err == ctx.Err() { // the fan-out stopped between rules
			err = fmt.Errorf("core: check cancelled: %w", err)
		}
		return err
	}
	for i := range runs {
		rep.merge(&runs[i].rep)
	}
	return nil
}

// ruleRun is one deck rule's way through a check: its plan and child report
// and, between executing and settling, the record it makes, its executor's
// error and the close of its rule span.
type ruleRun struct {
	r   rules.Rule
	rp  *rulePlan
	rep Report
	rec *ruleRecord
	err error
	end func(err error, status string) error
	m0  time.Duration // sequential: the window's start
}

// deckOrder settles a parallel check's rules in deck order: finish marks a
// rule executed, and the caller that completes the executed prefix settles
// it, rule after rule, under the lock.
type deckOrder struct {
	mu   sync.Mutex
	done []bool //odrc:guardedby mu
	next int    //odrc:guardedby mu
}

// finish marks rule i executed and settles every rule of the executed prefix
// not settled yet. A settle that fails (a cancellation) stops all settling.
func (o *deckOrder) finish(i int, settle func(j int) error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.done[i] = true
	for o.next < len(o.done) && o.done[o.next] {
		j := o.next
		o.next++
		if err := settle(j); err != nil {
			o.next = len(o.done)
			return err
		}
	}
	return nil
}

// ruleWidth is how many rules run side by side: the worker count, except
// under a context Scheduler, whose tenants share workers chunk by chunk and
// park only at rule boundaries on the caller (DESIGN.md §13) — there the
// rules run inline on the caller, in deck order.
func (e *Engine) ruleWidth(ctx context.Context) int {
	if pool.Scheduled(ctx) {
		return 1
	}
	return e.opts.Workers
}

// deckRule executes deck rule ru the way its plan says, against its child
// report. A skipped or replayed rule executes nothing: settle answers it
// from its record. An executed rule runs its executor under the fault seam,
// with the rule's span open, and — parallel mode — records its device work
// on the child's tape; a complete run's record takes the Stats the executor
// wrote and the tape.
func (e *Engine) deckRule(ctx context.Context, lo *layout.Layout, ru *ruleRun, placements [][]geom.Transform, pc *parCtx) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: check cancelled: %w", err)
	}
	r, rp, rep := ru.r, ru.rp, &ru.rep
	if rp != nil && rp.mode == planSkip {
		return nil
	}
	// Rule boundary: let a lagging co-tenant's check run ahead of this one's
	// next serial stretch (no-op without a context scheduler).
	pool.YieldCtx(ctx)
	e.opts.Logger.Debugf("%s: rule %s", e.opts.Mode, r)
	ru.m0 = rep.Profile.Elapsed()
	if rp != nil && rp.mode == planReplay {
		return nil
	}
	rep.executed++
	if rp != nil {
		ru.rec = &ruleRecord{key: rp.key, vers: rp.vers, full: rp.mode == planFull}
	}
	if pc != nil {
		rep.tape = new(gpu.Tape)
		rep.tape.Reset(pc.dev.Props())
	}
	ru.end = e.beginRule(rep, r)
	ru.err = e.protect(ctx, r, func() error { return e.execRule(ctx, lo, r, placements, rep, pc) })
	if rec := ru.rec; rec != nil && rec.full {
		// Settling adds the Stats of the rule's device provision to the
		// child; those are the check's, not the record's.
		rec.stats = rep.Stats
		if rep.tape != nil {
			rec.tape = *rep.tape
		}
	}
	return nil
}

// settle finishes deck rule ru once every rule before it has: a skipped
// rule's record is its run; a replayed rule is answered from its record; an
// executed rule's tape (parallel mode) replays onto the live streams, whose
// marks provide its device memory in deck order, and then the rule's outcome
// is judged — the first error in program order, a replay's before the
// executor's, fails it — and a successful run leaves its record on the child
// for runDeck to commit: its violations (a restricted run's merged with the
// retained ones) and, for a complete run, the Stats and tape deckRule took.
// The committed violations are sorted first, so a record holds its rule's
// run in canonical order and a replay yields a sorted run. settle brackets
// the rule's window: on the modeled clock and the device's record sequence
// around the replay in parallel mode, on the profiler clock around the whole
// rule in sequential mode. pc is nil in sequential mode.
func (e *Engine) settle(ctx context.Context, ru *ruleRun, pc *parCtx) error {
	r, rp, rep := ru.r, ru.rp, &ru.rep
	if rp != nil && rp.mode == planSkip {
		// Record current: its violations are the rule's. Device-silent.
		rep.Violations = rp.rec.violations
		rep.endSegment(r.ID, true)
		return nil
	}
	w := ruleWindow{rule: r.ID, m0: ru.m0}
	if pc != nil {
		w.m0, w.c0 = pc.dev.HostClock(), pc.dev.OpCount()
	}
	if rp != nil && rp.mode == planReplay {
		rep.replayed++
		err := e.replay(ctx, rep, r, rp.rec, pc)
		rep.endSegment(r.ID, true)
		if err != nil {
			return err
		}
	} else {
		err := ru.err
		if pc != nil {
			if rerr := e.replayTape(pc, rep, rep.tape, true); rerr != nil {
				err = rerr
			}
		}
		if err = ru.end(err, "ok"); err != nil {
			return err
		}
		if rec := ru.rec; rec != nil && len(rep.Failures) == 0 {
			if rp.mode == planRestrict {
				mergeDelta(rep, rp)
			}
			// The record and the sorted segment share the child's array:
			// canonicalize copies every run out and never sorts a sorted one in
			// place, so no report handed out aliases it.
			sortViolations(rep.Violations)
			rec.violations = rep.Violations
			rep.record = rec
		}
		rep.endSegment(r.ID, ru.rec != nil)
	}
	if pc == nil {
		w.m1 = rep.Profile.Elapsed()
		w.host = w.m1 - w.m0
	} else {
		w.m1, w.c1 = pc.dev.HostClock(), pc.dev.OpCount()
		for _, h := range rep.hostSpans {
			w.host += h.e - h.s
		}
	}
	rep.ruleWindows = append(rep.ruleWindows, w)
	return nil
}

// execRule runs rule r's executor for the engine's mode: the simulated
// device in parallel mode (pc non-nil), the hierarchical host sweeps
// otherwise.
func (e *Engine) execRule(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report, pc *parCtx) error {
	switch r.Kind {
	case rules.Spacing:
		if pc != nil {
			return e.runSpacingPar(ctx, lo, r, pc, rep)
		}
		return e.runSpacingSeq(ctx, lo, r, placements, rep)
	case rules.Enclosure:
		if rp := e.restrictFor(r); rp != nil {
			return e.runEnclosureWindow(ctx, lo, r, rp, rep, pc)
		}
		if pc != nil {
			return e.runEnclosurePar(ctx, lo, r, placements, pc, rep)
		}
		return e.runEnclosureSeq(ctx, lo, r, placements, rep)
	case rules.Custom:
		// User callables cannot run on the device; the paper's ensures()
		// predicates execute host-side in both modes, with the same
		// per-definition pruning. In parallel mode the work is host time and
		// must advance the modeled clock.
		if pc != nil {
			return hostPhase(rep, pc, "par:custom", func() error {
				return e.runIntraSeq(ctx, lo, r, placements, rep)
			})
		}
	default:
		if pc != nil {
			return e.runIntraPar(ctx, lo, r, placements, pc, rep)
		}
	}
	// Sequential intra-polygon and custom rules.
	return e.runIntraSeq(ctx, lo, r, placements, rep)
}

// readsCache reports whether rule r, as this check runs it, reads its layer
// through the geometry cache: a spacing rule executed in full on the device.
// Replays, skips and restricted runs (which query their work window) read no
// cache, and neither do the other kinds or the sequential mode. It
// decides which layers a session patches before the check
// (Session.applyPending) and which the prefetch warms — the same layers, so
// the prefetch never reads a record with dirt on it.
func (e *Engine) readsCache(r rules.Rule) bool {
	rp := e.plan.of(r)
	return r.Kind == rules.Spacing && e.opts.Mode == Parallel && (rp == nil || rp.mode == planFull)
}

// hostPhase measures fn as host work under the profiler phase name (whose
// clock the trace recorder shares). In parallel mode (pc non-nil) the
// measured time also advances the modeled host clock, during which the
// device may still be executing previously enqueued work: inside an
// executing rule it goes onto the rule's tape, to be charged when the tape
// replays, and outside one (the check's own phases, a replayed rule's) it is
// charged now (parCtx.advance). fn's error passes through after the time is
// measured (the failed work still spent host time).
func hostPhase(rep *Report, pc *parCtx, name string, fn func() error) error {
	stop := rep.Profile.Phase(name)
	err := fn()
	d := stop()
	switch {
	case pc == nil:
	case rep.tape != nil:
		rep.tape.HostAdvance(name, d)
	default:
		pc.advance(rep, name, d)
	}
	return err
}

// advance moves the modeled host clock by dt of measured host work in phase
// name and keeps the modeled window on rep as a modeled-host span — the host
// side of the trace's overlap analysis. Settled state: the check's own
// phases and settling rules call it, one at a time.
func (pc *parCtx) advance(rep *Report, name string, dt time.Duration) {
	m0 := pc.dev.HostClock()
	pc.dev.HostAdvance(dt)
	if m1 := pc.dev.HostClock(); m1 > m0 {
		rep.hostSpans = append(rep.hostSpans, modeledSpan{name: name, s: m0, e: m1})
	}
}

// instancePlacements is what a check that executes at least one rule needs
// of the layout's references: the magnification restriction checked against
// the deck, and the instance enumeration. A check that only replays and skips
// gets neither — every record it answers from was made by a check that passed
// the first and needs no second. A session computes the enumeration once: no
// edit adds, moves or deletes a reference (InvalidateAll drops it). The check
// that computes it runs the enumeration as the mode's host phase.
func (e *Engine) instancePlacements(lo *layout.Layout, ses *Session, rep *Report, pc *parCtx) ([][]geom.Transform, error) {
	if !e.plan.executes(e.deck) {
		return nil, nil
	}
	if err := checkMagRestriction(lo, e.deck); err != nil {
		return nil, err
	}
	if ses != nil && ses.placements != nil {
		return ses.placements, nil
	}
	name := "instance-enumeration"
	if pc != nil {
		name = "par:" + name
	}
	var placements [][]geom.Transform
	_ = hostPhase(rep, pc, name, func() error { placements = lo.Placements(); return nil })
	if ses != nil {
		ses.placements = placements
	}
	return placements, nil
}

// replay answers a rule from its record: the violations, the Stats its
// executor wrote and, in parallel mode, its tape, replayed onto the live
// streams — its marks bind the rule's resident layers as any execution's do,
// and its host advances are skipped, the work they charged being done. It
// is host phase "replay" — the guard included, which is most of what a
// replayed rule costs — and so advances the modeled host clock by what the
// replay really takes.
func (e *Engine) replay(ctx context.Context, rep *Report, r rules.Rule, rec *ruleRecord, pc *parCtx) error {
	return hostPhase(rep, pc, "replay", func() error {
		end := e.beginRule(rep, r)
		return end(e.protect(ctx, r, func() error {
			rep.Violations = rec.violations
			rep.Stats.add(rec.stats)
			if pc == nil {
				return nil
			}
			return e.replayTape(pc, rep, &rec.tape, false)
		}), "replayed")
	})
}

// replayTape replays tape t of the rule whose child report is rep onto the
// live streams: its marks through settleMark, and — when charge is set — its
// host advances onto the modeled host clock as the rule's host spans.
func (e *Engine) replayTape(pc *parCtx, rep *Report, t *gpu.Tape, charge bool) error {
	var host func(string, time.Duration)
	if charge {
		host = func(name string, dt time.Duration) { pc.advance(rep, name, dt) }
	}
	return pc.cs.Replay(t, func(m any) error { return e.settleMark(pc, rep, m.(devMark)) }, host)
}

// cancelled reports whether err stems from context cancellation or a
// deadline — failures that must abort the whole run rather than degrade it.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// protect runs fn behind the per-rule fault seam, returning a panic (direct
// or re-raised from a pool worker) as a *pool.PanicError.
func (e *Engine) protect(ctx context.Context, r rules.Rule, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if pe, ok := rec.(*pool.PanicError); ok {
				err = pe
			} else {
				err = &pool.PanicError{Value: rec, Stack: debug.Stack()}
			}
		}
	}()
	if err := e.opts.Faults.Hit(ctx, faults.SiteRule, r.ID); err != nil {
		return err
	}
	return fn()
}

// beginRule opens rule r's span on the rule track and returns the func that
// judges the rule's outcome err and closes the span: the engine's
// fault-isolation guard. A nil err leaves the rule's violations standing
// under status ("ok" for an executed rule, "replayed" for one answered from
// its record). An error is converted into a RuleFailure on the report, the
// rule's violations since beginRule are discarded (so degraded reports stay
// bit-identical across worker counts), and the run continues. Cancellation
// is the exception: it aborts the whole check, and end returns it.
func (e *Engine) beginRule(rep *Report, r rules.Rule) (end func(err error, status string) error) {
	mark := len(rep.Violations)
	stop := e.opts.Trace.Begin(trace.TrackRules, "", r.ID, "rule")
	return func(err error, status string) error {
		emitted := len(rep.Violations) - mark
		switch {
		case err == nil:
		case cancelled(err):
			status, emitted = "cancelled", 0
			err = fmt.Errorf("core: rule %s: check cancelled: %w", r.ID, err)
		default:
			status, emitted = "failed", 0
			rep.Violations = rep.Violations[:mark]
			f := RuleFailure{Rule: r.ID, Err: err.Error()}
			var pe *pool.PanicError
			if errors.As(err, &pe) {
				f.Panicked = true
				f.Err = fmt.Sprintf("panic: %v", pe.Value)
				f.Stack = string(pe.Stack)
			}
			if errors.Is(err, budget.ErrExceeded) {
				f.BudgetExceeded = true
				f.Budget = budget.FromError(err)
			}
			rep.Failures = append(rep.Failures, f)
			rep.Degraded = true
			e.opts.Logger.Warnf("core: rule %s failed, continuing degraded: %s", r.ID, f.Err)
			err = nil
		}
		stop(trace.Arg{Key: "kind", Val: r.Kind.String()},
			trace.Arg{Key: "status", Val: status},
			trace.Arg{Key: "violations", Val: emitted})
		return err
	}
}

// sortViolations puts violations in canonical order. rules.Less is a total
// order, so equal violation multisets sort into identical slices regardless
// of emission order (kernel schedule, worker count, replay or execution).
func sortViolations(vs []rules.Violation) {
	sort.Slice(vs, func(i, j int) bool { return rules.Less(&vs[i], &vs[j]) })
}

// DedupViolations collapses violations that share rule, box, distance and
// corner flag — repeated hierarchy instances of one physical defect become
// one marker, as layout viewers do. The predicate is not full identity:
// violations differing only in Cell, Kind or their edges collapse too, and
// the one first in rules.Less order survives (so of two differing only in
// Cell, the smaller Cell). The input slice is left untouched; the result is a
// freshly allocated, sorted slice.
func DedupViolations(vs []rules.Violation) []rules.Violation {
	sorted := append([]rules.Violation(nil), vs...)
	sortViolations(sorted)
	out := sorted[:0]
	for i, v := range sorted {
		if i > 0 {
			p := out[len(out)-1]
			if p.Rule == v.Rule && p.Marker.Box == v.Marker.Box &&
				p.Marker.Dist == v.Marker.Dist && p.Marker.Corner == v.Marker.Corner {
				continue
			}
		}
		out = append(out, v)
	}
	return out
}

// checkMagRestriction rejects a magnified reference whose subtree holds
// geometry on an input layer of an inter-polygon (spacing or enclosure) rule
// of the deck: thresholds do not transfer across magnified frames for pair
// checks (see DESIGN.md). A magnified reference to geometry no such rule
// reads is fine — the intra-polygon kinds rescale their threshold per
// magnification. The layout answers from a table it built once
// (Layout.MagnifiedRef), so the test costs O(deck) per check.
func checkMagRestriction(lo *layout.Layout, deck rules.Deck) error {
	var layers []layout.Layer
	for _, r := range deck {
		if !r.Kind.Intra() {
			layers = append(layers, r.Inputs()...)
		}
	}
	if parent, child, ok := lo.MagnifiedRef(layers); ok {
		return fmt.Errorf("core: inter-polygon rules with magnified reference %s -> %s are unsupported",
			parent, child)
	}
	return nil
}
