// Package pool is OpenDRC's host fan-out: the execution layer behind the
// engine's multi-core work (per cell definition in the intra checks, per
// partition row in the spacing sweep, per tile in the KLayout tiling
// baseline). It is deliberately small: an indexed ForEachCtx whose callers
// write results into per-index slots, so merged output is bit-identical
// regardless of the worker count, with a worker's panic returned to the
// caller as an error; Go, the same fan-out detached into the background;
// and the tenant-fair
// Scheduler (sched.go), which routes the same fan-out's chunks through a
// shared worker set.
//
// Failure semantics: ForEachCtx and Go honor context cancellation by
// refusing new indices and draining the ones already running — a cancelled
// fan-out never abandons a running worker — and report the lowest failing
// index's error, so degraded results are deterministic.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"opendrc/internal/trace"
)

// Workers resolves a configured worker count: values <= 0 select
// runtime.GOMAXPROCS(0), the number of usable host cores.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a panic recovered inside a worker so ForEachCtx can
// return it to the caller with the worker's stack preserved.
type PanicError struct {
	Value any    // the original panic value
	Stack []byte // the panicking worker's stack
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: worker panic: %v\n%s", e.Value, e.Stack)
}

// indexedErr pairs a task error with the index it occurred at, so the
// reported error is the lowest-index one — independent of worker count and
// schedule.
type indexedErr struct {
	idx int
	err error
}

// chunksPerWorker oversubscribes the chunk count relative to the worker
// count so dynamic handout can still balance uneven task costs: each worker
// pulls several chunks per fan-out on average, while tiny tasks amortize
// their dispatch (one atomic increment and one trace span per chunk, not
// per index).
const chunksPerWorker = 4

// chunkFor returns the adaptive chunk size for a fan-out of n indices over
// the given (already resolved, > 1) worker count.
func chunkFor(workers, n int) int {
	c := n / (workers * chunksPerWorker)
	if c < 1 {
		c = 1
	}
	return c
}

// ForEachCtx runs fn(0..n-1) on up to `workers` goroutines (<= 0 selects
// GOMAXPROCS) with cooperative cancellation and error propagation. Indices
// are handed out dynamically in chunks, so uneven task costs balance across
// workers without paying per-index dispatch; with one worker (or one index)
// fn runs inline on the caller, in index order, like a plain loop. When fn
// returns an error or panics, no new indices are handed out, in-flight
// indices drain, and the error of the lowest failed index is returned (a
// panic is wrapped in a *PanicError carrying the worker's stack). When ctx
// is cancelled the handout stops the same way and ctx.Err() is returned.
// The choice of the lowest-index error keeps degraded results deterministic
// across worker counts and chunk sizes. When the context carries a
// Scheduler (WithScheduler), the multi-worker path routes its chunks
// through the shared tenant-fair worker set instead of spawning its own
// goroutines; results and error semantics are identical either way.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return forEachChunkCtx(ctx, workers, n, 0, fn)
}

// forEachChunkCtx is ForEachCtx with an explicit chunk size: indices are
// handed to workers in spans of `chunk` consecutive indices (the last span
// may be shorter). chunk <= 0 selects the adaptive size, which targets
// chunksPerWorker chunks per worker. Error, panic, cancellation, and result
// semantics are identical for every chunk size; the equivalence tests pin
// that down.
func forEachChunkCtx(ctx context.Context, workers, n, chunk int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	rec := trace.FromContext(ctx)
	var label string
	if rec != nil {
		// Trace chunks as pool-track spans (also on the inline fast path, so
		// one-worker traces show the same tasks). Lanes are assigned at
		// export from span overlap, not goroutine identity.
		label = trace.TaskLabel(ctx)
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 || n == 1 {
		// Inline fast path: no goroutines, no synchronization, and — with no
		// recorder attached — no allocations at all. The worker path lives in
		// fanout's methods so its goroutine closures cannot force rec/label/fn
		// onto the heap for this branch (escape analysis is per-function).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runSpan(rec, label, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	// The scheduler lookup happens only on the multi-worker path, so the
	// inline branch above stays allocation-free even under a scheduler.
	if s := schedulerFromContext(ctx); s != nil {
		return s.forEach(newFanout(ctx, rec, label, tenantFromContext(ctx), workers, n, chunk, fn))
	}
	return newFanout(ctx, rec, label, "", workers, n, chunk, fn).run()
}

// Go starts fn(0..n-1) in the background on min(workers, n) goroutines
// (workers <= 0 selects GOMAXPROCS), handing out one index at a time, and
// returns wait, which blocks until every started index finished and then
// reports like ForEachCtx: the lowest failing index's error (a panic as a
// *PanicError) or ctx.Err(). Cancelling ctx stops the handout; indices
// already running drain. With a recorder in ctx each index is a "label#i"
// span on the pool track. Go never routes through a context Scheduler: it
// is for detached warm-up work that stays out of tenant accounting.
func Go(ctx context.Context, workers, n int, fn func(i int) error) (wait func() error) {
	f := newFanout(ctx, trace.FromContext(ctx), trace.TaskLabel(ctx), "", Workers(workers), max(n, 0), 1, fn)
	join := f.start(f.cap)
	return func() error {
		join()
		return f.result()
	}
}

// runSpan executes one inline-path index, tracing it as its own span when a
// recorder is attached (matching the per-chunk spans of the worker path:
// inline chunks have exactly one index).
func runSpan(rec *trace.Recorder, label string, i int, fn func(i int) error) (err error) {
	if rec != nil {
		stop := rec.Begin(trace.TrackPool, "", chunkName(label, i, i+1), "pool")
		defer stop()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// chunkName renders a pool-track span name for the chunk [lo, hi): single-
// index chunks keep the historical "label#i" form, multi-index chunks show
// the span "label#lo-hi" (hi exclusive).
func chunkName(label string, lo, hi int) string {
	if hi == lo+1 {
		return fmt.Sprintf("%s#%d", label, lo)
	}
	return fmt.Sprintf("%s#%d-%d", label, lo, hi)
}

// fanout is one multi-worker fan-out, whoever drives it — the caller plus
// helper goroutines (run), helpers alone (Go), or a Scheduler's shared
// workers beside the caller: the chunk handout, the lowest-index failure
// watermark, per-index panic recovery, and the pool-track chunk span.
type fanout struct {
	ctx    context.Context
	rec    *trace.Recorder
	label  string
	tenant string // "" off the scheduler: chunk spans then carry no tenant arg
	fn     func(int) error

	n, chunk, cap int
	nextLo        atomic.Int64 // next index to hand out; chunks go out in ascending order
	failIdx       atomic.Int64 // lowest recorded failure index; n = none
	fmu           sync.Mutex
	fail          *indexedErr

	// Scheduled path only, guarded by the scheduler's mu.
	arrival   uint64
	t         *schedTenant
	running   int  // chunks currently executing
	queued    bool // still linked in the tenant queue
	completed bool // done has been closed
	done      chan struct{}
}

// newFanout resolves the chunk size (chunk <= 0 selects the adaptive size)
// and caps the worker count at the number of chunks.
func newFanout(ctx context.Context, rec *trace.Recorder, label, tenant string, workers, n, chunk int, fn func(int) error) *fanout {
	if chunk <= 0 {
		chunk = chunkFor(workers, n)
	}
	f := &fanout{
		ctx: ctx, rec: rec, label: label, tenant: tenant, fn: fn,
		n: n, chunk: chunk, cap: min(workers, (n+chunk-1)/chunk),
	}
	f.failIdx.Store(int64(n))
	return f
}

// take claims the next chunk [lo, hi); lo >= n once the index space is
// consumed.
func (f *fanout) take() (lo, hi int) {
	lo = int(f.nextLo.Add(int64(f.chunk))) - f.chunk
	return lo, min(lo+f.chunk, f.n)
}

// run drives the fan-out directly: the calling goroutine drains the handout
// beside cap-1 helper goroutines, then reports.
func (f *fanout) run() error {
	join := f.start(f.cap - 1)
	f.drain()
	join()
	return f.result()
}

// start launches k helper goroutines draining the handout; join waits for
// them.
func (f *fanout) start(k int) (join func()) {
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func() {
			defer wg.Done()
			f.drain()
		}()
	}
	return wg.Wait
}

// drain runs chunks until the handout is exhausted. One cancellation check
// per chunk: ctx.Err() takes a lock inside the context, so probing it per
// index would serialize the workers on exactly the hot path chunking exists
// to relieve.
func (f *fanout) drain() {
	for f.ctx.Err() == nil {
		lo, hi := f.take()
		// After a failure, indices at or above the lowest recorded failing
		// index may be skipped — but every index below it still runs, so the
		// reported error is the globally lowest failing index, deterministic
		// for every worker count and chunk size. Chunks are handed out in
		// ascending order, so once lo passes the watermark nothing below it
		// remains.
		if lo >= f.n || int64(lo) > f.failIdx.Load() {
			return
		}
		f.runChunk(lo, hi)
	}
}

// runChunk executes the chunk [lo, hi) under the failure watermark, traced
// as one pool-track span (tagged with the tenant on the scheduled path).
func (f *fanout) runChunk(lo, hi int) {
	var stopSpan func(args ...trace.Arg)
	if f.rec != nil {
		stopSpan = f.rec.Begin(trace.TrackPool, "", chunkName(f.label, lo, hi), "pool")
	}
	for i := lo; i < hi && int64(i) <= f.failIdx.Load(); i++ {
		f.runIndex(i)
	}
	switch {
	case stopSpan == nil:
	case f.tenant != "":
		stopSpan(trace.Arg{Key: "tenant", Val: f.tenant})
	default:
		stopSpan()
	}
}

// runIndex executes one index with panic recovery.
func (f *fanout) runIndex(i int) {
	defer func() {
		if r := recover(); r != nil {
			f.record(i, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if err := f.fn(i); err != nil {
		f.record(i, err)
	}
}

// record keeps the lowest-index error and lowers the watermark to it.
func (f *fanout) record(i int, err error) {
	f.fmu.Lock()
	if f.fail == nil || i < f.fail.idx {
		f.fail = &indexedErr{idx: i, err: err}
		f.failIdx.Store(int64(i))
	}
	f.fmu.Unlock()
}

// result reports a drained fan-out: the lowest-index error, else ctx.Err().
func (f *fanout) result() error {
	f.fmu.Lock()
	fail := f.fail
	f.fmu.Unlock()
	if fail != nil {
		return fail.err
	}
	return f.ctx.Err()
}
