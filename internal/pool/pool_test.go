package pool

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"opendrc/internal/trace"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 1000
		hits := make([]int32, n)
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForEachInlineWhenSingle(t *testing.T) {
	// One worker must run on the calling goroutine, in index order.
	var order []int
	err := ForEachCtx(context.Background(), 1, 5, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v", order)
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	err := ForEachCtx(context.Background(), 4, 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachCtxLowestIndexError(t *testing.T) {
	// Multiple indices fail; the reported error must be the lowest index,
	// independent of worker count.
	for _, workers := range []int{1, 2, 4, 8} {
		err := ForEachCtx(context.Background(), workers, 100, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@3" {
			t.Fatalf("workers=%d: err = %v, want fail@3", workers, err)
		}
	}
}

func TestForEachCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEachCtx(ctx, 4, 1000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx after cancel = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not stop the index handout")
	}
}

func TestForEachCtxPanicAsError(t *testing.T) {
	err := ForEachCtx(context.Background(), 4, 50, func(i int) error {
		if i == 7 {
			panic("kaput")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaput" {
		t.Fatalf("ForEachCtx = %v, want *PanicError{kaput}", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

// traceNames exports rec and returns the names of its pool-track spans.
func traceNames(t *testing.T, rec *trace.Recorder) []string {
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
		if ev["ph"] == "X" && ev["cat"] == "pool" {
			names = append(names, ev["name"].(string))
		}
	}
	sort.Strings(names)
	return names
}

func TestForEachCtxRecordsTaskSpans(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := trace.NewWithClock(func() time.Duration { return 0 })
		ctx := trace.WithTask(trace.WithRecorder(context.Background(), rec), "row")
		err := ForEachCtx(ctx, workers, 3, func(i int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		got := traceNames(t, rec)
		want := []string{"row#0", "row#1", "row#2"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: spans %v, want %v (inline path must trace too)", workers, got, want)
		}
	}
}

func TestForEachCtxNoRecorderNoSpans(t *testing.T) {
	// Without a recorder the fan-out must not pay any tracing cost or panic.
	err := ForEachCtx(context.Background(), 2, 4, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestGo pins the background fan-out: wait returns only after every index
// ran, a panic comes back as a *PanicError, a cancelled context stops the
// handout, and each index is traced as "label#i" on the pool track.
func TestGo(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
		cancelAt   int32 // cancel ctx when this many indices have started; 0 = never
		fn         func(i int) error
		check      func(t *testing.T, err error, ran int32)
	}{
		{
			name: "waits_for_every_index", n: 20, workers: 4,
			fn: func(int) error { time.Sleep(time.Millisecond); return nil },
			check: func(t *testing.T, err error, ran int32) {
				if err != nil || ran != 20 {
					t.Fatalf("wait = %v after %d of 20 indices, want nil after all", err, ran)
				}
			},
		},
		{
			name: "panic", n: 8, workers: 2,
			fn: func(i int) error {
				if i == 3 {
					panic("boom")
				}
				return nil
			},
			check: func(t *testing.T, err error, ran int32) {
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
					t.Fatalf("wait = %v, want *PanicError{boom} with a stack", err)
				}
			},
		},
		{
			name: "cancel_stops_handout", n: 1000, workers: 2, cancelAt: 5,
			fn: func(int) error { return nil },
			check: func(t *testing.T, err error, ran int32) {
				if !errors.Is(err, context.Canceled) || ran == 1000 {
					t.Fatalf("wait = %v after %d of 1000 indices, want context.Canceled before the end", err, ran)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			wait := Go(ctx, tc.workers, tc.n, func(i int) error {
				if ran.Add(1) == tc.cancelAt {
					cancel()
				}
				return tc.fn(i)
			})
			err := wait()
			tc.check(t, err, ran.Load())
		})
	}
	t.Run("spans", func(t *testing.T) {
		rec := trace.NewWithClock(func() time.Duration { return 0 })
		ctx := trace.WithTask(trace.WithRecorder(context.Background(), rec), "prefetch")
		if err := Go(ctx, 2, 3, func(int) error { return nil })(); err != nil {
			t.Fatal(err)
		}
		got := traceNames(t, rec)
		want := []string{"prefetch#0", "prefetch#1", "prefetch#2"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spans %v, want %v (one per index)", got, want)
		}
	})
}

// TestForEachChunkCtxEquivalence pins the chunking contract: for forced
// chunk sizes 1, 7, and n, the fan-out produces identical per-index
// results, the identical lowest-index error, and identical cancellation
// behavior. Reports built from per-index slots are therefore bit-identical
// whatever the chunk size.
func TestForEachChunkCtxEquivalence(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 3, 8} {
		for _, chunk := range []int{1, 7, n} {
			// Results land in per-index slots, the callers' merge pattern.
			slots := make([]int, n)
			err := forEachChunkCtx(context.Background(), workers, n, chunk, func(i int) error {
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

			// Lowest-index error, independent of chunk size.
			err = forEachChunkCtx(context.Background(), workers, n, chunk, func(i int) error {
				if i%7 == 3 {
					return fmt.Errorf("fail@%d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail@3" {
				t.Fatalf("workers=%d chunk=%d: err = %v, want fail@3", workers, chunk, err)
			}

			// Panic wrapped as *PanicError with the same lowest-index rule.
			err = forEachChunkCtx(context.Background(), workers, n, chunk, func(i int) error {
				if i == 5 {
					panic("kaput")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "kaput" {
				t.Fatalf("workers=%d chunk=%d: err = %v, want *PanicError{kaput}", workers, chunk, err)
			}

			// Cancellation surfaces ctx.Err() and stops the handout.
			ctx, cancel := context.WithCancel(context.Background())
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

// TestForEachCtxLowestErrorAcrossChunks forces the adversarial schedule: a
// failure late in a later chunk must not suppress a lower failing index
// still pending in an earlier chunk.
func TestForEachCtxLowestErrorAcrossChunks(t *testing.T) {
	const n = 90
	var gate atomic.Bool
	err := forEachChunkCtx(context.Background(), 2, n, 30, func(i int) error {
		switch {
		case i == 60:
			// Fail immediately in the last chunk, before index 3 runs.
			gate.Store(true)
			return fmt.Errorf("fail@%d", i)
		case i == 3:
			// Give the high failure every chance to land first.
			for j := 0; j < 1000 && !gate.Load(); j++ {
				runtime.Gosched()
			}
			return fmt.Errorf("fail@%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail@3" {
		t.Fatalf("err = %v, want fail@3 (lowest failing index must win)", err)
	}
}

// TestForEachCtxNoRecorderAllocFree is the regression gate for the nil-
// recorder hot path: the inline fast path must not allocate at all, and the
// worker path must allocate O(workers) per fan-out — never O(n).
func TestForEachCtxNoRecorderAllocFree(t *testing.T) {
	ctx := context.Background()
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
		t.Errorf("inline ForEachCtx allocs = %v, want 0", inline)
	}
	workers := testing.AllocsPerRun(20, func() {
		if err := ForEachCtx(ctx, 4, 10000, fn); err != nil {
			t.Fatal(err)
		}
	})
	// Goroutines, the waitgroup/closure state, and chunk bookkeeping cost a
	// handful of allocations per *call*; the budget is far below one
	// allocation per index (10000 indices here).
	if workers > 32 {
		t.Errorf("worker ForEachCtx allocs = %v, want <= 32 (per-call, not per-index)", workers)
	}
}

// TestForEachChunkCtxTraceSpansPerChunk checks chunked tracing: one span
// per chunk, named by the index span it covers.
func TestForEachChunkCtxTraceSpansPerChunk(t *testing.T) {
	rec := trace.NewWithClock(func() time.Duration { return 0 })
	ctx := trace.WithTask(trace.WithRecorder(context.Background(), rec), "row")
	if err := forEachChunkCtx(ctx, 2, 10, 4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got := traceNames(t, rec)
	want := []string{"row#0-4", "row#4-8", "row#8-10"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans %v, want %v (one span per chunk)", got, want)
	}
}
