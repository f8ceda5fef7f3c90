// Package trace is OpenDRC's unified run-timeline recorder: one structured
// span/event log that merges the host phase profile (infra.Profiler), the
// worker pool's task lanes (internal/pool), the engine's rule lifecycle and
// geometry-cache traffic (internal/core), and the simulated device's
// per-stream modeled timeline (internal/gpu) into a single Chrome-trace /
// Perfetto JSON file — the observability layer behind the paper's runtime
// breakdown (Fig. 4) and host/device overlap argument (Section V-C).
//
// Clock domains. The exported file contains up to three processes:
//
//   - "host" (pid 1): profiler phase spans, rule lifecycle spans, and
//     geometry-cache events, timestamped by the recorder's clock (wall time
//     by default, injectable for deterministic tests).
//   - "pool" (pid 2): one track per worker lane with a span per submitted
//     task. Lanes are assigned at export by deterministic interval packing,
//     not by goroutine identity, so traces do not depend on which physical
//     worker happened to pick a task up.
//   - "device (modeled)" (pid 3): the simulated GPU's per-stream operation
//     timeline plus a "host (modeled)" track of host work mapped onto the
//     modeled clock. This process uses modeled time (see internal/gpu);
//     host/device overlap is read here, where both sides share one clock.
//
// Determinism contract. Export is canonical: events are sorted by track and
// content (never by recording interleaving), pool lanes are packed
// deterministically, and args are emitted in recording order with
// encoding/json's sorted map keys. Under an injectable clock whose readings
// are schedule-independent, repeated runs at the same worker count export
// byte-identical files; monotonic sequence numbers (the recorder's internal
// order, and gpu.Record.Seq on device events) break every remaining tie.
//
// Cost contract. A nil *Recorder is the disabled state: every method is
// nil-safe and returns immediately, so call sites need no tracing branch.
package trace

import (
	"context"
	"sync"
	"time"
)

// TrackID names one logical track group of the unified timeline.
type TrackID int

// Track groups. TrackDevice events carry the stream name in the sub
// parameter ("host" is reserved for the modeled-host track).
const (
	TrackPhases   TrackID = iota // host: profiler phase spans
	TrackRules                   // host: rule lifecycle spans
	TrackGeocache                // host: geometry-cache hit/miss events
	TrackPool                    // pool: task spans, lanes packed at export
	TrackDevice                  // device (modeled): per-stream operations
)

// Arg is one key/value annotation on an event. Args keep their recording
// order internally (content determinism) and serialize as a JSON object.
type Arg struct {
	Key string
	Val any
}

// event is one recorded timeline entry.
type event struct {
	track TrackID
	sub   string // device stream name; empty elsewhere
	name  string
	cat   string
	ph    byte // 'X' span, 'i' instant, 's'/'f' flow endpoints
	ts    time.Duration
	dur   time.Duration
	flow  uint64
	args  []Arg
	seq   uint64
}

// Recorder accumulates timeline events. Safe for concurrent use; the zero
// value is not usable — construct with New or NewWithClock. A nil *Recorder
// is the disabled recorder: every method no-ops.
type Recorder struct {
	clock func() time.Duration

	mu     sync.Mutex
	events []event
	meta   []Arg
	seq    uint64
	flows  uint64
}

// New returns a recorder timestamping with the wall clock, measured as
// elapsed time since construction.
func New() *Recorder {
	start := time.Now()
	return NewWithClock(func() time.Duration { return time.Since(start) })
}

// NewWithClock returns a recorder with an injectable monotonic clock — the
// seam behind byte-identical trace exports in tests and replayed runs. A
// nil clock selects the wall clock.
func NewWithClock(clock func() time.Duration) *Recorder {
	if clock == nil {
		return New()
	}
	return &Recorder{clock: clock}
}

// Clock returns the recorder's time source, shared with the profiler so
// host phases and trace spans live on one clock. Nil for a nil recorder.
func (r *Recorder) Clock() func() time.Duration {
	if r == nil {
		return nil
	}
	return r.clock
}

// Now reads the recorder's clock (zero for a nil recorder).
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.clock()
}

// append records one event under the lock.
func (r *Recorder) append(e event) {
	r.mu.Lock()
	e.seq = r.seq
	r.seq++
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Span records a completed span with explicit start and end times (the
// caller's clock domain — modeled time for TrackDevice, recorder time
// elsewhere).
func (r *Recorder) Span(track TrackID, sub, name, cat string, start, end time.Duration, args ...Arg) {
	if r == nil {
		return
	}
	if end < start {
		end = start
	}
	r.append(event{track: track, sub: sub, name: name, cat: cat, ph: 'X', ts: start, dur: end - start, args: args})
}

// Begin opens a span on the recorder's clock and returns its stop function.
// Stop is idempotent — only the first call records — and nil-safe: a nil
// recorder returns a no-op stop.
func (r *Recorder) Begin(track TrackID, sub, name, cat string) func(args ...Arg) {
	if r == nil {
		return func(...Arg) {}
	}
	start := r.clock()
	var once sync.Once
	return func(args ...Arg) {
		once.Do(func() {
			r.Span(track, sub, name, cat, start, r.clock(), args...)
		})
	}
}

// Instant records a point event at the recorder's current clock reading.
func (r *Recorder) Instant(track TrackID, sub, name, cat string, args ...Arg) {
	if r == nil {
		return
	}
	r.InstantAt(track, sub, name, cat, r.clock(), args...)
}

// InstantAt records a point event at an explicit timestamp (the caller's
// clock domain).
func (r *Recorder) InstantAt(track TrackID, sub, name, cat string, ts time.Duration, args ...Arg) {
	if r == nil {
		return
	}
	r.append(event{track: track, sub: sub, name: name, cat: cat, ph: 'i', ts: ts, args: args})
}

// FlowAt records a dependency edge between two sub-tracks of a track group
// (e.g. a device event-wait from the producing stream to the waiting one):
// a flow-start at (fromSub, from) and a flow-end at (toSub, to) sharing one
// flow id.
func (r *Recorder) FlowAt(track TrackID, fromSub, toSub, name, cat string, from, to time.Duration, args ...Arg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	id := r.flows
	r.flows++
	r.mu.Unlock()
	r.append(event{track: track, sub: fromSub, name: name, cat: cat, ph: 's', ts: from, flow: id, args: args})
	r.append(event{track: track, sub: toSub, name: name, cat: cat, ph: 'f', ts: to, flow: id, args: args})
}

// SetMeta attaches one top-level metadata entry ("otherData" in the
// exported file); a repeated key overwrites the earlier value.
func (r *Recorder) SetMeta(key string, val any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.meta {
		if r.meta[i].Key == key {
			r.meta[i].Val = val
			return
		}
	}
	r.meta = append(r.meta, Arg{Key: key, Val: val})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Context plumbing: the recorder travels in a context.Context so the worker
// pool (and any layer below the engine) records task spans without call
// sites threading a recorder explicitly.

type ctxKey int

const (
	recorderKey ctxKey = iota
	taskLabelKey
	requestIDKey
)

// WithRecorder returns ctx carrying the recorder; a nil recorder returns
// ctx unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, r)
}

// FromContext returns the recorder carried by ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// WithTask labels the pool task spans recorded under ctx ("cell", "row",
// "tile", "prefetch", ...). Without a recorder in ctx this is free: ctx is
// returned unchanged.
func WithTask(ctx context.Context, label string) context.Context {
	if FromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, taskLabelKey, label)
}

// TaskLabel returns the pool task label carried by ctx ("task" by default).
func TaskLabel(ctx context.Context) string {
	if s, ok := ctx.Value(taskLabelKey).(string); ok && s != "" {
		return s
	}
	return "task"
}

// WithRequestID returns ctx carrying a service-layer request identity. The
// odrcd daemon stamps every admitted check with one ("<session>/check#<seq>",
// deterministic per-session arrival order); it rides the context through the
// engine so logs, stall reports, and per-request recorders all name the same
// request. An empty id returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request identity carried by ctx, or "" outside a
// request (batch CLI runs, tests without a server).
func RequestID(ctx context.Context) string {
	s, _ := ctx.Value(requestIDKey).(string)
	return s
}
