// Fair scheduling across tenants. The service runs many sessions on one
// process; without a scheduler, concurrent fan-outs drain in submission
// order on whatever goroutines the OS happens to run, and a tenant
// submitting large full-deck checks starves a co-tenant's small delta
// checks. The paper's hierarchical decomposition already splits every check
// into small uniform work units (per-cell, per-row, per-tile chunks), so
// fairness can happen at chunk granularity: a Scheduler keeps one FIFO
// queue of fan-outs per tenant and a weighted-fair (stride) dispatcher
// picks which tenant's next chunk a shared worker runs. Task-granularity
// interleaving beats static worker partitioning because an idle tenant's
// share flows to the busy ones instead of idling a partition.
//
// Liveness is caller-participation: the goroutine that submitted a fan-out
// always helps execute its own chunks (counted against the fan-out's worker
// cap). Every fan-out therefore makes progress even when all shared workers
// are busy with other tenants — and a nested fan-out inside a chunk body
// can never deadlock waiting for a free worker. Nothing gates chunk
// execution; the one place a tenant parks is YieldCtx, between rules.
//
// Determinism is untouched: the scheduler only reorders chunk execution,
// and fan-out callers write results into per-index slots (reports are
// sorted and merged independent of schedule), so canonical reports stay
// byte-identical under any co-tenant load. Scheduled and direct fan-outs
// are the same fanout (pool.go), so error, panic, and cancellation
// semantics are one implementation; the equivalence tests pin them.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"opendrc/internal/faults"
	"opendrc/internal/trace"
)

// SchedPolicy selects how the dispatcher picks the next chunk.
type SchedPolicy int

const (
	// FairShare is weighted stride scheduling over the per-tenant queues:
	// every chunk take — shared-worker dispatch and caller self-service
	// alike — advances the tenant's pass by strideOne/weight, and the
	// tenant with the lowest pass is served next.
	FairShare SchedPolicy = iota
	// FIFO serves fan-outs in global submission order — the pre-scheduler
	// baseline the fairness benchmark compares against.
	FIFO
)

// String implements fmt.Stringer.
func (p SchedPolicy) String() string {
	switch p {
	case FairShare:
		return "fair"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// strideOne is the stride of a weight-1 tenant; a weight-w tenant advances
// its pass 1/w as fast and is served w times as often under contention.
const strideOne = 1 << 20

// rejoinWarp is the bounded latency credit (in weight-1 chunk takes) a
// tenant receives when it transitions idle → active: it rejoins that far
// *behind* the current pass front instead of at it. Borrowed-virtual-time
// style — a bursty latency-sensitive tenant (small delta checks) runs its
// burst ahead of a saturating tenant's queue instead of interleaving with
// it, while the credit's fixed size bounds how much long-run share the
// bursts can borrow. A continuously-busy tenant never goes idle and never
// collects credit, so sustained loads still split by weight alone.
const rejoinWarp = 256 * strideOne

// defaultTenant is the queue shared by fan-outs without an explicit tenant
// tag.
const defaultTenant = "default"

// SchedConfig tunes a Scheduler.
type SchedConfig struct {
	// Workers is the number of shared dispatcher goroutines (<= 0 selects
	// GOMAXPROCS). These are the cross-tenant capacity; each fan-out's
	// submitting goroutine additionally serves its own chunks.
	Workers int
	// Policy selects the dispatch order. The zero value is FairShare.
	Policy SchedPolicy
	// Weights maps tenant name → stride weight (higher = larger share);
	// tenants absent from it get weight 1.
	Weights map[string]int
	// Faults drives the chaos suite through the faults.SiteSched seam at
	// chunk dispatch. Nil is inert.
	Faults *faults.Injector
}

// schedTenant is one tenant's dispatch state.
type schedTenant struct {
	name   string
	weight int

	// All guarded by the scheduler's mu.
	pass       uint64    // stride pass: lowest pass is served next
	queue      []*fanout // FIFO of fan-outs with chunks left to hand out
	inflight   int       // chunks currently executing
	present    int       // open presence spans (checks in flight)
	dispatched uint64    // chunks handed to shared workers
	selfServed uint64    // chunks run by the fan-outs' own callers
	yields     uint64    // YieldCtx calls: the rule boundaries its checks passed
	gatedWaits uint64    // yields that parked behind a lagging tenant
	fanouts    uint64    // fan-outs accepted
}

// Scheduler is the tenant-aware dispatch layer. Attach one to a context
// with WithScheduler and every multi-worker ForEachCtx below it routes its
// chunks through the shared, weighted-fair worker set. The zero value is not
// usable; construct with NewScheduler and Close when done.
type Scheduler struct {
	policy   SchedPolicy
	weights  map[string]int
	faults   *faults.Injector
	nworkers int

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	tenants  map[string]*schedTenant
	names    []string // tenant registration order: deterministic scans
	arrivals uint64   // global fan-out arrival counter
	workers  sync.WaitGroup
}

// NewScheduler starts a scheduler with its shared workers running.
func NewScheduler(cfg SchedConfig) *Scheduler {
	w := Workers(cfg.Workers)
	weights := make(map[string]int, len(cfg.Weights))
	for name, wt := range cfg.Weights {
		weights[name] = wt
	}
	s := &Scheduler{
		policy:   cfg.Policy,
		weights:  weights,
		faults:   cfg.Faults,
		nworkers: w,
		tenants:  map[string]*schedTenant{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.workers.Add(w)
	for i := 0; i < w; i++ {
		go s.worker()
	}
	return s
}

// Close stops the shared workers once no work is runnable. Fan-outs still
// in flight finish on their submitting goroutines (caller participation);
// fan-outs submitted after Close run directly, without cross-tenant
// interleaving. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.workers.Wait()
}

// Forget drops an idle tenant's bookkeeping (a deleted session's tenant
// would otherwise accumulate forever). A tenant with queued or running
// work is left untouched; it can be forgotten once it drains.
func (s *Scheduler) Forget(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[tenant]
	if t == nil || len(t.queue) > 0 || t.inflight > 0 || t.present > 0 {
		return
	}
	delete(s.tenants, tenant)
	for i, n := range s.names {
		if n == tenant {
			s.names = append(s.names[:i], s.names[i+1:]...)
			break
		}
	}
}

// SchedTenantSnapshot is one tenant's row in a Snapshot.
type SchedTenantSnapshot struct {
	Tenant     string `json:"tenant"`
	Weight     int    `json:"weight"`
	Pass       uint64 `json:"pass"`
	Queued     int    `json:"queued_fanouts"`
	Inflight   int    `json:"inflight_chunks"`
	Present    int    `json:"open_checks"`
	Dispatched uint64 `json:"dispatched_chunks"`
	SelfServed uint64 `json:"self_served_chunks"`
	Yields     uint64 `json:"yields"`
	GatedWaits uint64 `json:"gated_waits"`
	Fanouts    uint64 `json:"fanouts"`
}

// SchedSnapshot is the scheduler's observable state (the /debug/sched
// payload): policy, shared worker count, and per-tenant accounting in
// tenant-name order.
type SchedSnapshot struct {
	Policy  string                `json:"policy"`
	Workers int                   `json:"workers"`
	Tenants []SchedTenantSnapshot `json:"tenants"`
}

// Snapshot captures the current dispatch state.
func (s *Scheduler) Snapshot() SchedSnapshot {
	snap := SchedSnapshot{Policy: s.policy.String(), Workers: s.nworkers}
	s.mu.Lock()
	for _, name := range s.names {
		t := s.tenants[name]
		snap.Tenants = append(snap.Tenants, SchedTenantSnapshot{
			Tenant: t.name, Weight: t.weight, Pass: t.pass,
			Queued: len(t.queue), Inflight: t.inflight, Present: t.present,
			Dispatched: t.dispatched, SelfServed: t.selfServed,
			Yields: t.yields, GatedWaits: t.gatedWaits, Fanouts: t.fanouts,
		})
	}
	s.mu.Unlock()
	sort.Slice(snap.Tenants, func(i, j int) bool {
		return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant
	})
	return snap
}

// exhaustedLocked reports that no further chunks will be handed out: the
// index space is consumed, a failure watermark was passed (chunks go out in
// ascending order, so nothing below it remains), or the fan-out's context
// is cancelled.
func (f *fanout) exhaustedLocked() bool {
	lo := f.nextLo.Load()
	return lo >= int64(f.n) || lo > f.failIdx.Load() || f.ctx.Err() != nil
}

// takeLocked hands out the next chunk.
func (f *fanout) takeLocked() (lo, hi int) {
	f.running++
	return f.take()
}

// execute runs the chunk [lo, hi) outside the scheduler lock — behind the
// SiteSched chaos seam — and retires it.
func (s *Scheduler) execute(f *fanout, lo, hi int) {
	if s.faults == nil || f.hitSched(s.faults, lo) {
		f.runChunk(lo, hi)
	}
	s.chunkDone(f)
}

// hitSched evaluates the SiteSched seam for the chunk starting at lo,
// converting an injected error or panic into the fan-out's failure at that
// index. True means the chunk may run.
func (f *fanout) hitSched(inj *faults.Injector, lo int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			f.record(lo, &PanicError{Value: r, Stack: debug.Stack()})
			ok = false
		}
	}()
	if err := inj.Hit(f.ctx, faults.SiteSched, fmt.Sprintf("%s#%d", f.tenant, lo)); err != nil { //odrc:allow ctxflow — a scheduled fan-out stores its caller's ctx for the workers that serve its chunks
		f.record(lo, err)
		return false
	}
	return true
}

// forEach is the scheduled way to drive a fan-out: enqueue it on the
// tenant's queue, serve its chunks from the calling goroutine while shared
// workers interleave it fairly with other tenants, then report.
func (s *Scheduler) forEach(f *fanout) error {
	f.done = make(chan struct{})
	if !s.enqueue(f) {
		// The scheduler has shut down: run directly. Semantics are identical,
		// only cross-tenant interleaving (and the span's tenant tag) is lost.
		f.tenant = ""
		return f.run()
	}
	s.serveOwn(f)
	<-f.done
	return f.result()
}

// enqueue registers the fan-out under its tenant. False when the scheduler
// is closed.
func (s *Scheduler) enqueue(f *fanout) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	t := s.joinLocked(f.tenant)
	s.arrivals++
	f.arrival = s.arrivals
	f.t = t
	f.queued = true
	t.queue = append(t.queue, f)
	t.fanouts++
	s.mu.Unlock()
	s.cond.Broadcast()
	return true
}

// joinLocked resolves (creating or re-activating) the tenant's dispatch
// state. A tenant entering from fully idle — nothing queued, nothing
// running, no open presence span — is lifted to just behind the current
// pass front: at most rejoinWarp of latency credit. The lift is a floor,
// never a push-down — max(own pass, front − rejoinWarp) — so a tenant
// whose streams merely gapped for an instant keeps the pass its recent
// service earned instead of minting fresh credit and gating genuinely
// lagging co-tenants. Accumulated lag from a long sleep still cannot let
// a returning tenant monopolize the workers, and a pass left far ahead
// by its last burst cannot defer this one behind a saturating co-tenant's
// standing queue (pickLocked orders by pass, and the co-tenant's pass
// keeps advancing while the rejoiner's holds).
func (s *Scheduler) joinLocked(tenant string) *schedTenant {
	t := s.tenants[tenant]
	if t == nil {
		t = &schedTenant{name: tenant, weight: s.weightFor(tenant),
			pass: warpedJoinPass(s.minActivePassLocked())}
		s.tenants[tenant] = t
		s.names = append(s.names, tenant)
	} else if len(t.queue) == 0 && t.inflight == 0 && t.present == 0 {
		if wp := warpedJoinPass(s.minActivePassLocked()); wp > t.pass {
			t.pass = wp
		}
	}
	return t
}

// enter opens a presence span for tenant: the whole latency-sensitive work
// unit (one service check), not just the instants its fan-outs are queued.
// While a lagging tenant is present, co-tenant checks park at their rule
// boundaries (YieldCtx) even during its serial sections — on a busy host
// the run-queue delay of those sections, not chunk dispatch order, is what
// buries a small check under a saturating neighbor. The returned leave func
// closes the span (idempotent).
func (s *Scheduler) enter(tenant string) (leave func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return func() {}
	}
	t := s.joinLocked(tenant)
	t.present++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			t.present--
			s.mu.Unlock()
			// The span's pass lag no longer gates anyone; wake parked
			// co-tenant yields.
			s.cond.Broadcast()
		})
	}
}

// EnterCtx opens a presence span for the context's tenant on the context's
// scheduler, returning the leave func. A no-op closure when the context
// carries no scheduler.
func EnterCtx(ctx context.Context) func() {
	s := schedulerFromContext(ctx)
	if s == nil {
		return func() {}
	}
	return s.enter(tenantFromContext(ctx))
}

// YieldCtx parks the caller while its tenant is gated behind a lagging
// co-tenant — the scheduler's one way to park a tenant. The engine calls it
// at rule boundaries, where it already polls for cancellation, so a batch
// check parks within one rule of a small co-tenant check starting instead
// of staying runnable beside it. Returns immediately when the context
// carries no scheduler, the scheduler is closed or not fair-share, the
// tenant is not gated, or the context is done; a parked caller wakes on any
// scheduling event or cancellation.
func YieldCtx(ctx context.Context) {
	s := schedulerFromContext(ctx)
	if s == nil {
		return
	}
	s.yield(ctx, tenantFromContext(ctx))
}

// yield checks the gate before arming anything, so the common ungated call
// — every rule boundary of every service check — allocates nothing.
func (s *Scheduler) yield(ctx context.Context, tenant string) {
	var stop func() bool
	s.mu.Lock()
	if t := s.tenants[tenant]; t != nil {
		t.yields++
	}
	for !s.closed && ctx.Err() == nil {
		t := s.tenants[tenant]
		if t == nil || !s.gatedLocked(t) {
			break
		}
		if stop == nil {
			// Cancellation must wake the cond wait: nothing else is guaranteed
			// to broadcast while the gating tenant sits present but idle. The
			// broadcast takes mu, so it cannot slip in before this Wait parks.
			stop = context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			// Counted once per parked call: every broadcast wakes this loop.
			t.gatedWaits++
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Weight reports the stride weight tenant would be scheduled with (its
// configured weight, or 1). The weight table is immutable after
// construction, so this needs no lock.
func (s *Scheduler) Weight(tenant string) int { return s.weightFor(tenant) }

// weightFor resolves a tenant's configured stride weight.
func (s *Scheduler) weightFor(tenant string) int {
	if w, ok := s.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// warpedJoinPass is where a tenant entering (or re-entering) the
// contention lands relative to the active pass front: rejoinWarp behind
// it, clamped at zero.
func warpedJoinPass(front uint64) uint64 {
	if front <= rejoinWarp {
		return 0
	}
	return front - rejoinWarp
}

// minActivePassLocked is the lowest pass among tenants with work — the
// join point for tenants entering (or re-entering) the contention.
func (s *Scheduler) minActivePassLocked() uint64 {
	var min uint64
	found := false
	for _, name := range s.names {
		t := s.tenants[name]
		if len(t.queue) == 0 && t.inflight == 0 && t.present == 0 {
			continue
		}
		if !found || t.pass < min {
			min = t.pass
			found = true
		}
	}
	return min
}

// serveOwn runs chunks of the caller's own fan-out until its handout is
// finished. The submitting goroutine always contributes, so every fan-out
// makes progress even when all shared workers serve other tenants, and a
// nested fan-out inside a chunk body cannot deadlock. Self-served chunks
// count against the fan-out's worker cap and advance the tenant's stride
// pass exactly like worker dispatches — on hosts where callers outrun the
// shared workers, the pass would otherwise never meter the bulk of the
// consumption and FairShare would degenerate to FIFO.
func (s *Scheduler) serveOwn(f *fanout) {
	for {
		s.mu.Lock()
		for !f.exhaustedLocked() && f.running >= f.cap {
			s.cond.Wait()
		}
		if f.exhaustedLocked() {
			if f.queued {
				s.removeLocked(f)
			}
			s.completeIfIdleLocked(f)
			s.mu.Unlock()
			// The tenant's runnable front may have vanished with this fan-out;
			// parked co-tenant yields must re-evaluate.
			s.cond.Broadcast()
			return
		}
		lo, hi := f.takeLocked()
		f.t.inflight++
		f.t.selfServed++
		s.advancePassLocked(f.t)
		s.mu.Unlock()
		s.cond.Broadcast()
		s.execute(f, lo, hi)
	}
}

// advancePassLocked meters one chunk take against the tenant's stride
// pass — dispatches and caller self-service alike, so pass is cumulative
// service in SFQ terms no matter which goroutine executed the chunk. FIFO
// keeps passes frozen — arrival order alone decides.
func (s *Scheduler) advancePassLocked(t *schedTenant) {
	if s.policy == FairShare {
		t.pass += strideOne / uint64(t.weight)
	}
}

// gatedLocked reports whether a tenant's yield must park: some other
// tenant lags strictly behind on pass AND is either present (a check span
// is open — its serial sections need the CPU as much as its fan-outs) or
// has a fan-out that can accept a worker right now. The park is bounded:
// nothing gates chunk execution, so the laggard's fan-outs always progress
// and advance its pass toward the parked tenant's, and its presence ends
// with its check (or its context). The lowest-pass tenant is never gated.
func (s *Scheduler) gatedLocked(me *schedTenant) bool {
	if s.policy != FairShare {
		return false
	}
	for _, name := range s.names {
		t := s.tenants[name]
		if t == me || t.pass >= me.pass {
			continue
		}
		if t.present > 0 || s.frontLocked(t) != nil {
			return true
		}
	}
	return false
}

// worker is one shared dispatcher goroutine: pick the next chunk under the
// policy, run it, repeat until the scheduler closes and drains.
func (s *Scheduler) worker() {
	defer s.workers.Done()
	for {
		f, lo, hi, ok := s.next()
		if !ok {
			return
		}
		s.execute(f, lo, hi)
	}
}

// next blocks until a chunk is runnable (or the scheduler closes with
// nothing runnable) and dispatches it, advancing the winning tenant's pass
// and recording the decision on the fan-out's timeline.
func (s *Scheduler) next() (f *fanout, lo, hi int, ok bool) {
	s.mu.Lock()
	for {
		if f, t := s.pickLocked(); f != nil {
			lo, hi := f.takeLocked()
			t.inflight++
			t.dispatched++
			pass := t.pass
			s.advancePassLocked(t)
			queued := len(t.queue)
			s.mu.Unlock()
			// The take moved the tenant's pass, which can release a parked
			// co-tenant yield.
			s.cond.Broadcast()
			s.noteDispatch(f, lo, hi, pass, queued)
			return f, lo, hi, true
		}
		if s.closed {
			s.mu.Unlock()
			return nil, 0, 0, false
		}
		s.cond.Wait()
	}
}

// noteDispatch records the scheduling decision as an instant on the pool
// track of the fan-out's timeline: which tenant won, at what pass, and how
// deep its queue still is.
func (s *Scheduler) noteDispatch(f *fanout, lo, hi int, pass uint64, queued int) {
	if f.rec == nil {
		return
	}
	f.rec.Instant(trace.TrackPool, "", "sched:"+f.tenant, "sched",
		trace.Arg{Key: "tenant", Val: f.tenant},
		trace.Arg{Key: "chunk", Val: chunkName(f.label, lo, hi)},
		trace.Arg{Key: "pass", Val: pass},
		trace.Arg{Key: "queued_fanouts", Val: queued},
	)
}

// pickLocked returns the fan-out to serve next under the policy — lowest
// pass for FairShare (arrival order breaking ties), globally oldest
// arrival for FIFO — pruning finished queue entries as it scans. Nil when
// nothing is runnable.
func (s *Scheduler) pickLocked() (*fanout, *schedTenant) {
	var bestF *fanout
	var bestT *schedTenant
	for _, name := range s.names {
		t := s.tenants[name]
		f := s.frontLocked(t)
		if f == nil {
			continue
		}
		switch {
		case bestF == nil:
			bestF, bestT = f, t
		case s.policy == FairShare:
			if t.pass < bestT.pass || (t.pass == bestT.pass && f.arrival < bestF.arrival) {
				bestF, bestT = f, t
			}
		default: // FIFO
			if f.arrival < bestF.arrival {
				bestF, bestT = f, t
			}
		}
	}
	return bestF, bestT
}

// frontLocked returns the first fan-out of t's queue that can accept
// another worker, dropping entries whose handout is finished (their
// in-flight chunks drain and chunkDone or the caller closes them out). A
// fan-out saturating its worker cap does not block the tenant's later
// fan-outs.
func (s *Scheduler) frontLocked(t *schedTenant) *fanout {
	keep := t.queue[:0]
	var front *fanout
	for _, f := range t.queue {
		if f.exhaustedLocked() {
			f.queued = false
			s.completeIfIdleLocked(f)
			continue
		}
		keep = append(keep, f)
		if front == nil && f.running < f.cap {
			front = f
		}
	}
	for i := len(keep); i < len(t.queue); i++ {
		t.queue[i] = nil
	}
	t.queue = keep
	return front
}

// removeLocked unlinks f from its tenant queue.
func (s *Scheduler) removeLocked(f *fanout) {
	q := f.t.queue
	for i, g := range q {
		if g == f {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			f.t.queue = q[:len(q)-1]
			break
		}
	}
	f.queued = false
}

// completeIfIdleLocked closes the fan-out's done channel once it is fully
// drained: dequeued, nothing running, nothing more to hand out.
func (s *Scheduler) completeIfIdleLocked(f *fanout) {
	if !f.completed && !f.queued && f.running == 0 {
		f.completed = true
		close(f.done)
	}
}

// chunkDone retires one executed chunk and wakes waiters: a worker or the
// caller may now take the next chunk, and the final chunk completes the
// fan-out.
func (s *Scheduler) chunkDone(f *fanout) {
	s.mu.Lock()
	f.t.inflight--
	f.running--
	if f.queued && f.exhaustedLocked() {
		s.removeLocked(f)
	}
	s.completeIfIdleLocked(f)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Context plumbing: the scheduler and the tenant tag ride the context the
// same way the trace recorder and request ID do, so tenant identity flows
// from the service through core.Session into every fan-out without new
// parameters.

type schedCtxKey int

const (
	schedulerKey schedCtxKey = iota
	tenantKey
)

// WithScheduler routes multi-worker fan-outs below ctx through s. A nil
// scheduler returns ctx unchanged.
func WithScheduler(ctx context.Context, s *Scheduler) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, schedulerKey, s)
}

// schedulerFromContext returns the scheduler attached by WithScheduler, or
// nil.
func schedulerFromContext(ctx context.Context) *Scheduler {
	s, _ := ctx.Value(schedulerKey).(*Scheduler)
	return s
}

// Scheduled reports whether ctx carries a scheduler: whether multi-worker
// fan-outs below it route through shared tenant-fair workers.
func Scheduled(ctx context.Context) bool { return schedulerFromContext(ctx) != nil }

// WithTenant tags fan-outs below ctx with a tenant identity for fair
// scheduling and tracing. An empty tenant returns ctx unchanged.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey, tenant)
}

// tenantFromContext returns the tenant tag attached by WithTenant;
// untagged contexts share defaultTenant.
func tenantFromContext(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey).(string); ok {
		return t
	}
	return defaultTenant
}
