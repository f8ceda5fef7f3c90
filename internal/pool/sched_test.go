package pool

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opendrc/internal/faults"
	"opendrc/internal/trace"
)

// newBareScheduler builds a scheduler with no shared workers, so dispatch
// can be driven synchronously through next() — the deterministic harness
// for the policy tests.
func newBareScheduler(policy SchedPolicy, weights map[string]int) *Scheduler {
	s := &Scheduler{
		policy:  policy,
		weights: weights,
		tenants: map[string]*schedTenant{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueueBare registers a fan-out without a serving caller.
func enqueueBare(t *testing.T, s *Scheduler, tenant string, n int) *fanout {
	t.Helper()
	f := newFanout(context.Background(), nil, "", tenant, n, n, 1, func(int) error { return nil })
	f.done = make(chan struct{})
	if !s.enqueue(f) {
		t.Fatalf("enqueue %s refused", tenant)
	}
	return f
}

// TestSchedulerStrideWeights pins the weighted-fair dispatch order without
// any goroutines: with tenants A (weight 1) and B (weight 3) both saturated,
// a run of shared-worker dispatches serves B three times as often, and the
// sequence is exactly the stride schedule.
func TestSchedulerStrideWeights(t *testing.T) {
	s := newBareScheduler(FairShare, map[string]int{"B": 3})
	enqueueBare(t, s, "A", 100)
	enqueueBare(t, s, "B", 100)
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		f, _, _, ok := s.next()
		if !ok {
			t.Fatalf("dispatch %d: nothing runnable", i)
		}
		counts[f.tenant]++
	}
	if counts["A"] != 10 || counts["B"] != 30 {
		t.Fatalf("dispatches = %v, want A:10 B:30 (weight 1 vs 3)", counts)
	}
}

// TestSchedulerFIFOOrder pins the baseline policy: FIFO drains fan-outs in
// global arrival order regardless of tenant.
func TestSchedulerFIFOOrder(t *testing.T) {
	s := newBareScheduler(FIFO, nil)
	enqueueBare(t, s, "first", 5)
	enqueueBare(t, s, "second", 5)
	for i := 0; i < 5; i++ {
		f, _, _, _ := s.next()
		if f.tenant != "first" {
			t.Fatalf("dispatch %d went to %q before the older fan-out drained", i, f.tenant)
		}
	}
	f, _, _, _ := s.next()
	if f.tenant != "second" {
		t.Fatalf("dispatch after drain went to %q, want second", f.tenant)
	}
}

// TestSchedulerIdleRejoin: a tenant entering (or re-entering from idle)
// gets exactly rejoinWarp of latency credit behind the active pass front —
// enough to run a burst ahead of a saturating co-tenant's queue, never the
// unbounded banked credit a long sleep would otherwise accumulate.
func TestSchedulerIdleRejoin(t *testing.T) {
	// Early on, the front is closer than the warp: credit clamps at zero.
	s := newBareScheduler(FairShare, nil)
	enqueueBare(t, s, "busy", 400)
	for i := 0; i < 20; i++ {
		s.next()
	}
	enqueueBare(t, s, "early", 10)
	s.mu.Lock()
	early := s.tenants["early"].pass
	s.mu.Unlock()
	if early != 0 {
		t.Fatalf("early joiner pass = %d, want clamp at 0", early)
	}

	// Once the front is far ahead, a joiner lands exactly rejoinWarp behind
	// it — not at zero, which would let accumulated lag monopolize the
	// workers.
	s = newBareScheduler(FairShare, nil)
	enqueueBare(t, s, "busy", 400)
	for i := 0; i < 300; i++ {
		s.next()
	}
	s.mu.Lock()
	busy := s.tenants["busy"].pass
	s.mu.Unlock()
	enqueueBare(t, s, "fresh", 100)
	s.mu.Lock()
	fresh := s.tenants["fresh"].pass
	s.mu.Unlock()
	if want := busy - rejoinWarp; fresh != want {
		t.Fatalf("fresh tenant joined at pass %d, want front %d - warp %d = %d",
			fresh, busy, uint64(rejoinWarp), want)
	}

	// The warp is a floor, not a push-down: a tenant whose streams merely
	// gapped for an instant rejoins at the pass its recent service earned —
	// it must not mint fresh credit and gate co-tenants that genuinely lag.
	bf := enqueueBare(t, s, "blip", 10)
	for i := 0; i < 10; i++ {
		if f, _, _, ok := s.next(); !ok || f.tenant != "blip" {
			t.Fatalf("take %d: expected to drain the blip tenant's fan-out", i)
		}
	}
	s.mu.Lock()
	s.removeLocked(bf)             // exhausted fan-outs are removed lazily
	s.tenants["blip"].inflight = 0 // bare harness never runs chunks
	if q := len(s.tenants["blip"].queue); q != 0 {
		s.mu.Unlock()
		t.Fatalf("blip tenant still has %d queued fan-outs after draining", q)
	}
	earned := s.tenants["blip"].pass
	s.mu.Unlock()
	enqueueBare(t, s, "blip", 10)
	s.mu.Lock()
	rejoined := s.tenants["blip"].pass
	s.mu.Unlock()
	if rejoined != earned {
		t.Fatalf("idle rejoin moved a recently-active tenant's pass %d -> %d; the warp must only lift",
			earned, rejoined)
	}
}

// TestSchedulerForEachEquivalence re-runs the chunking contract through the
// scheduled path: with a Scheduler in the context, per-index results, the
// lowest-index error, panic wrapping, and cancellation behave exactly like
// the direct path, for every forced chunk size.
func TestSchedulerForEachEquivalence(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 3})
	defer sched.Close()
	base := WithTenant(WithScheduler(context.Background(), sched), "t")
	const n = 100
	for _, workers := range []int{3, 8} {
		for _, chunk := range []int{1, 7, n} {
			slots := make([]int, n)
			err := forEachChunkCtx(base, workers, n, chunk, func(i int) error {
				slots[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			for i, v := range slots {
				if v != i*i {
					t.Fatalf("workers=%d chunk=%d: slot %d = %d", workers, chunk, i, v)
				}
			}

			err = forEachChunkCtx(base, workers, n, chunk, func(i int) error {
				if i%7 == 3 {
					return fmt.Errorf("fail@%d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail@3" {
				t.Fatalf("workers=%d chunk=%d: err = %v, want fail@3", workers, chunk, err)
			}

			err = forEachChunkCtx(base, workers, n, chunk, func(i int) error {
				if i == 5 {
					panic("kaput")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "kaput" {
				t.Fatalf("workers=%d chunk=%d: err = %v, want *PanicError{kaput}", workers, chunk, err)
			}

			ctx, cancel := context.WithCancel(base)
			var ran atomic.Int32
			err = forEachChunkCtx(ctx, workers, n, chunk, func(i int) error {
				if ran.Add(1) == 5 {
					cancel()
				}
				return nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d chunk=%d: cancel err = %v", workers, chunk, err)
			}
		}
	}
}

// TestSchedulerStarvation is the regression test for the bug the scheduler
// fixes: a small tenant's fan-out (1000 tiny tasks) submitted while a large
// tenant's fan-out (10 huge tasks) saturates a 2-worker scheduler must
// complete before the large tenant's tail, for every chunk size.
func TestSchedulerStarvation(t *testing.T) {
	for _, chunk := range []int{1, 7, 1000} {
		sched := NewScheduler(SchedConfig{Workers: 2})
		hctx := WithTenant(WithScheduler(context.Background(), sched), "large")
		lctx := WithTenant(WithScheduler(context.Background(), sched), "small")

		var largeDone, largeStarted atomic.Bool
		heavy := make(chan error, 1)
		go func() {
			heavy <- forEachChunkCtx(hctx, 2, 10, 1, func(i int) error {
				largeStarted.Store(true)
				time.Sleep(30 * time.Millisecond)
				return nil
			})
			largeDone.Store(true)
		}()
		for !largeStarted.Load() {
			time.Sleep(time.Millisecond)
		}

		var sum atomic.Int64
		if err := forEachChunkCtx(lctx, 2, 1000, chunk, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatalf("chunk=%d: small tenant: %v", chunk, err)
		}
		if largeDone.Load() {
			t.Fatalf("chunk=%d: small tenant finished after the large tenant's tail (starved)", chunk)
		}
		if got, want := sum.Load(), int64(1000*999/2); got != want {
			t.Fatalf("chunk=%d: small tenant sum = %d, want %d", chunk, got, want)
		}
		if err := <-heavy; err != nil {
			t.Fatalf("chunk=%d: large tenant: %v", chunk, err)
		}
		snap := sched.Snapshot()
		if len(snap.Tenants) != 2 || snap.Tenants[0].Tenant != "large" || snap.Tenants[1].Tenant != "small" {
			t.Fatalf("chunk=%d: snapshot tenants = %+v", chunk, snap.Tenants)
		}
		sched.Close()
	}
}

// TestSchedulerInlineAllocFree extends the PR 6 allocation gate: attaching
// a scheduler and tenant to the context must not cost the single-worker
// inline fast path a single allocation.
func TestSchedulerInlineAllocFree(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 2})
	defer sched.Close()
	ctx := WithTenant(WithScheduler(context.Background(), sched), "t")
	var sink atomic.Int64
	fn := func(i int) error {
		sink.Add(int64(i))
		return nil
	}
	inline := testing.AllocsPerRun(20, func() {
		if err := ForEachCtx(ctx, 1, 1000, fn); err != nil {
			t.Fatal(err)
		}
	})
	if inline != 0 {
		t.Errorf("inline ForEachCtx with scheduler allocs = %v, want 0", inline)
	}
}

// TestYieldCtxUngatedAllocFree: the engine yields at every rule boundary
// of every service check, so a yield that does not park (scheduler attached,
// tenant present, no lagging co-tenant) must not allocate.
func TestYieldCtxUngatedAllocFree(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 2})
	defer sched.Close()
	ctx := WithTenant(WithScheduler(context.Background(), sched), "t")
	leave := EnterCtx(ctx)
	defer leave()
	if allocs := testing.AllocsPerRun(20, func() { YieldCtx(ctx) }); allocs != 0 {
		t.Errorf("ungated YieldCtx allocs = %v, want 0", allocs)
	}
}

// TestSchedulerClosedFallsBack: fan-outs submitted after Close still run
// (directly), with identical results.
func TestSchedulerClosedFallsBack(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 2})
	sched.Close()
	sched.Close() // idempotent
	ctx := WithTenant(WithScheduler(context.Background(), sched), "t")
	var sum atomic.Int64
	if err := ForEachCtx(ctx, 4, 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := sum.Load(), int64(100*99/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestSchedulerChaosSiteSched drives the misbehaving-tenant seams: an
// injected error on one tenant's chunk fails only that tenant's fan-out,
// and an uncancellable stall on one tenant does not stop a co-tenant from
// completing while the victim is stuck.
func TestSchedulerChaosSiteSched(t *testing.T) {
	inj := faults.New(1, faults.Injection{
		Site: faults.SiteSched, Key: "victim#0", Mode: faults.Error,
	})
	sched := NewScheduler(SchedConfig{Workers: 2, Faults: inj})
	vctx := WithTenant(WithScheduler(context.Background(), sched), "victim")
	octx := WithTenant(WithScheduler(context.Background(), sched), "ok")

	err := forEachChunkCtx(vctx, 2, 50, 5, func(i int) error { return nil })
	var ie *faults.InjectedError
	if !errors.As(err, &ie) || ie.Site != faults.SiteSched {
		t.Fatalf("victim err = %v, want injected SiteSched error", err)
	}
	var sum atomic.Int64
	if err := ForEachCtx(octx, 2, 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatalf("co-tenant: %v", err)
	}
	if got, want := sum.Load(), int64(100*99/2); got != want {
		t.Fatalf("co-tenant sum = %d, want %d", got, want)
	}
	sched.Close()

	// A non-cooperative stall occupies one victim chunk; the co-tenant's
	// fan-out must finish while the victim is still stuck.
	stall := faults.New(1, faults.Injection{
		Site: faults.SiteSched, Key: "victim#0", Mode: faults.Stall,
		Stall: 2 * time.Second, IgnoreCancel: true,
	})
	sched = NewScheduler(SchedConfig{Workers: 2, Faults: stall})
	vctx = WithTenant(WithScheduler(context.Background(), sched), "victim")
	octx = WithTenant(WithScheduler(context.Background(), sched), "ok")
	var victimDone atomic.Bool
	vdone := make(chan error, 1)
	go func() {
		vdone <- forEachChunkCtx(vctx, 2, 10, 1, func(i int) error { return nil })
		victimDone.Store(true)
	}()
	var ran atomic.Int64
	if err := ForEachCtx(octx, 2, 200, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("co-tenant under stall: %v", err)
	}
	if victimDone.Load() {
		t.Fatal("victim finished before its 2s stall elapsed — stall did not fire")
	}
	if got := ran.Load(); got != 200 {
		t.Fatalf("co-tenant ran %d of 200 tasks while victim stalled", got)
	}
	if err := <-vdone; err != nil {
		t.Fatalf("stalled victim: %v", err)
	}
	sched.Close()
}

// TestSchedulerTraceDecisions: shared-worker dispatches record "sched:"
// instants on the pool track, and chunk spans carry the tenant tag.
func TestSchedulerTraceDecisions(t *testing.T) {
	sched := NewScheduler(SchedConfig{Workers: 2})
	defer sched.Close()
	rec := trace.NewWithClock(func() time.Duration { return 0 })
	ctx := trace.WithTask(trace.WithRecorder(context.Background(), rec), "row")
	ctx = WithTenant(WithScheduler(ctx, sched), "tn")
	// A gate keeps chunks busy long enough that the shared workers (not
	// only the serving caller) dispatch some of them.
	if err := forEachChunkCtx(ctx, 3, 30, 1, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range schedInstantNames(t, rec) {
		if n == "sched:tn" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no sched:tn dispatch instant recorded; instants = %v", schedInstantNames(t, rec))
	}
}

// schedInstantNames extracts the scheduler-decision instants ("sched" cat,
// instant phase) from the recorded timeline.
func schedInstantNames(t *testing.T, rec *trace.Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range file.TraceEvents {
		if ev["ph"] == "i" && ev["cat"] == "sched" {
			names = append(names, ev["name"].(string))
		}
	}
	return names
}

// TestYieldCountsParkedCallsOnce: gated_waits counts yields that parked,
// not wakeups — every broadcast anywhere wakes a parked yield, which then
// re-checks the gate and parks again within the same call.
func TestYieldCountsParkedCallsOnce(t *testing.T) {
	s := newBareScheduler(FairShare, nil)
	s.mu.Lock()
	s.joinLocked("ahead").pass = 10 * strideOne
	s.mu.Unlock()
	leave := s.enter("laggard") // present at pass 0
	done := yieldAsync(WithTenant(WithScheduler(context.Background(), s), "ahead"))
	// The count moves under mu just before the cond wait, so seeing it
	// moved means the yield is parked.
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		select {
		case <-done:
			t.Fatal("yield returned without parking")
		default:
		}
		s.mu.Lock()
		parked = s.tenants["ahead"].gatedWaits > 0
		s.mu.Unlock()
	}
	for i := 0; i < 20; i++ {
		s.cond.Broadcast()
		time.Sleep(time.Millisecond)
	}
	leave()
	<-done
	s.mu.Lock()
	got := s.tenants["ahead"].gatedWaits
	s.mu.Unlock()
	if got != 1 {
		t.Fatalf("one parked yield woken by 20 broadcasts counted gated_waits = %d, want 1", got)
	}
}

// TestYieldParksBehindLaggingPresentTenant pins the one way the scheduler
// parks a tenant: a yield whose tenant has run ahead on pass parks while a
// lagging co-tenant holds a presence span open, and returns when that span
// closes or the yield's own context ends. Under FIFO passes never move, so
// a yield never parks. Without presence spans (EnterCtx a no-op) or without
// yields (YieldCtx a no-op) this test fails.
func TestYieldParksBehindLaggingPresentTenant(t *testing.T) {
	for _, policy := range []SchedPolicy{FairShare, FIFO} {
		sched := NewScheduler(SchedConfig{Workers: 2, Policy: policy})
		base := WithScheduler(context.Background(), sched)
		actx := WithTenant(base, "A")
		bctx := WithTenant(base, "B")

		// A's fan-out moves its pass ahead (FairShare only); B then opens a
		// presence span and stays at pass 0.
		leaveA := EnterCtx(actx)
		if err := forEachChunkCtx(actx, 2, 64, 1, func(int) error { return nil }); err != nil {
			t.Fatalf("%s: A's fan-out: %v", policy, err)
		}
		leaveB := EnterCtx(bctx)

		if policy == FIFO {
			select {
			case <-yieldAsync(actx):
			case <-time.After(time.Second):
				t.Fatal("fifo: yield still parked after 1s; FIFO must never park")
			}
			for _, ts := range sched.Snapshot().Tenants {
				if ts.GatedWaits != 0 {
					t.Fatalf("fifo: tenant %s gated_waits = %d, want 0", ts.Tenant, ts.GatedWaits)
				}
			}
		} else {
			snap := sched.Snapshot()
			if len(snap.Tenants) != 2 || snap.Tenants[1].Present != 1 ||
				snap.Tenants[1].Pass >= snap.Tenants[0].Pass {
				t.Fatalf("fair: tenants = %+v; want B present and lagging A", snap.Tenants)
			}

			// Parked behind the present laggard until its span closes.
			parked := yieldAsync(actx)
			select {
			case <-parked:
				t.Fatal("fair: yield returned while the lagging tenant is present")
			case <-time.After(50 * time.Millisecond):
			}
			leaveB()
			select {
			case <-parked:
			case <-time.After(time.Second):
				t.Fatal("fair: yield still parked 1s after the lagging tenant left")
			}

			// Parked again, released by cancelling the yield's own context.
			leaveB = EnterCtx(bctx)
			cctx, cancel := context.WithCancel(actx)
			parked = yieldAsync(cctx)
			select {
			case <-parked:
				t.Fatal("fair: yield returned while the lagging tenant is present")
			case <-time.After(50 * time.Millisecond):
			}
			cancel()
			select {
			case <-parked:
			case <-time.After(time.Second):
				t.Fatal("fair: yield still parked 1s after its context was cancelled")
			}
		}
		leaveB()
		leaveA()
		sched.Close()
	}
}

// yieldAsync runs YieldCtx on its own goroutine; the channel closes when it
// returns.
func yieldAsync(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		YieldCtx(ctx)
		close(done)
	}()
	return done
}
