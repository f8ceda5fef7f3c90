// Package gpu is OpenDRC's simulated GPGPU substrate. The paper's parallel
// mode targets CUDA on an NVIDIA GTX 1660 Ti; no GPU exists in this
// environment, so the package provides the closest synthetic equivalent that
// exercises the same code paths:
//
//   - kernels execute *functionally* on the host — every thread body runs,
//     so violation results are bit-identical to a real SPMD execution;
//   - a discrete-event timeline charges each operation (kernel launch,
//     async memcpy, allocation) with a cost model derived from published
//     GTX 1660 Ti specifications (SM count, lanes per SM, clock, memory
//     bandwidth), including warp-divergence effects: a warp's cost is the
//     maximum of its threads' costs, so load imbalance is charged the way
//     lockstep SIMT hardware charges it;
//   - CUDA-style streams serialize operations per stream and overlap across
//     streams, with events for cross-stream dependencies and a
//     stream-ordered pool allocator, so the paper's latency-hiding
//     orchestration (Section V-C) is observable in the modeled timeline.
//
// Modeled time is reported separately from host wall time; benchmark tables
// label it as such.
package gpu

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"opendrc/internal/budget"
)

// Props describes the simulated device and the host it is paired with.
type Props struct {
	Name           string
	SMs            int     // streaming multiprocessors
	LanesPerSM     int     // CUDA cores per SM
	WarpSize       int     // threads per warp (lockstep unit)
	ClockHz        float64 // core clock
	CyclesPerOp    float64 // cycles charged per abstract thread operation
	MemBandwidth   float64 // bytes per second, device<->host
	LaunchOverhead time.Duration
	CopyOverhead   time.Duration

	// HostCalibration converts host work measured on *this* machine into
	// the modeled platform's host time: durations fed to HostAdvance are
	// divided by it. The reference platform is the paper's i7-11700
	// running optimized C++; this container's throttled vCPU running Go is
	// roughly an order of magnitude slower on the pointer-heavy geometry
	// code, so the default is DefaultHostCalibration. Zero means 1 (no
	// scaling). Without this correction the hybrid timeline would pair a
	// realistic GPU with an unrealistically slow host, skewing every
	// host/device trade-off the paper's flow depends on.
	HostCalibration float64
}

// DefaultHostCalibration is the measured-host-to-modeled-host divisor used
// by GTX1660Ti(). CPU-only baselines must be divided by the same constant
// when compared against modeled times (the benchmark harness does).
const DefaultHostCalibration = 10.0

// GTX1660Ti returns the paper's evaluation GPU: 24 SMs × 64 lanes = 1536
// CUDA cores at ~1.5 GHz, ~288 GB/s GDDR6. CyclesPerOp calibrates one
// abstract operation (one edge-pair test, one scan step): edge-based DRC
// kernels are dominated by irregular global-memory loads, so one op is
// charged at the canonical ~400-cycle uncoalesced global access latency
// rather than at ALU throughput.
func GTX1660Ti() Props {
	return Props{
		Name:            "sim-gtx1660ti",
		SMs:             24,
		LanesPerSM:      64,
		WarpSize:        32,
		ClockHz:         1.5e9,
		CyclesPerOp:     400,
		MemBandwidth:    288e9,
		LaunchOverhead:  5 * time.Microsecond,
		CopyOverhead:    8 * time.Microsecond,
		HostCalibration: DefaultHostCalibration,
	}
}

// lanes returns total concurrent lanes.
func (p Props) lanes() int { return p.SMs * p.LanesPerSM }

// OpKind labels a timeline record.
type OpKind string

// Timeline operation kinds.
const (
	OpKernel OpKind = "kernel"
	OpCopy   OpKind = "copy"
	OpAlloc  OpKind = "alloc"
	OpFree   OpKind = "free"
	OpSync   OpKind = "sync"
)

// Record is one completed operation on the modeled timeline.
type Record struct {
	Kind       OpKind
	Name       string
	Stream     string
	Start, End time.Duration // modeled time since device creation
	Threads    int
	Ops        int64  // total thread operations (kernels)
	Bytes      int64  // transfer size (copies)
	Seq        uint64 // monotonic enqueue order across all streams
}

// Device is one simulated GPU plus its modeled clock. The host clock
// advances via HostAdvance (callers feed measured host work in) and by
// synchronization with streams. Device is safe for single-goroutine use per
// stream; stream operations lock the shared timeline.
type Device struct {
	props Props

	mu        sync.Mutex
	hostClock time.Duration
	records   []Record
	waits     []WaitEdge
	seq       uint64 // next Record.Seq; monotonic across TrimTimeline
	launches  int    // OpKernel records enqueued; monotonic across TrimTimeline
	eventSeq  uint64 // next Event id
	pool      poolStats
	memLimit  int64               // pool byte budget; 0 = unlimited
	allocHook func(n int64) error // fault-injection seam; nil = none
}

type poolStats struct {
	inUse, peak, total int64
	allocs             int
}

// NewDevice creates a simulated device.
func NewDevice(p Props) *Device {
	if p.SMs <= 0 || p.LanesPerSM <= 0 || p.WarpSize <= 0 {
		panic("gpu: invalid device properties")
	}
	return &Device{props: p}
}

// Props returns the device description.
func (d *Device) Props() Props { return d.props }

// HostAdvance moves the modeled host clock forward by the given measured
// host-side duration (layout partitioning, edge packing, ...). Kernels and
// copies enqueued afterwards cannot start before this point on their stream.
func (d *Device) HostAdvance(dt time.Duration) {
	if dt < 0 {
		return
	}
	if c := d.props.HostCalibration; c > 0 && c != 1 {
		dt = time.Duration(float64(dt) / c)
	}
	d.mu.Lock()
	d.hostClock += dt
	d.mu.Unlock()
}

// HostClock returns the current modeled host time.
func (d *Device) HostClock() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostClock
}

// Timeline returns all completed operations sorted by (start time, enqueue
// sequence). The sequence tiebreak matters: async copies enqueued at one
// frontier across streams share a start time, and a start-only unstable
// sort returned them in nondeterministic order.
func (d *Device) Timeline() []Record {
	d.mu.Lock()
	out := append([]Record(nil), d.records...)
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// OpCount returns the number of timeline records enqueued over the device's
// lifetime — also the next Record.Seq, so callers can bracket a phase with
// two OpCount reads and select its records by sequence. The count is
// monotonic across TrimTimeline: trimming drops the record storage, never
// the sequence, so brackets taken before and after a trim stay comparable.
func (d *Device) OpCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.seq)
}

// KernelCount returns the number of kernel launches enqueued over the
// device's lifetime (every stream, direct or replayed). Like OpCount it is
// monotonic across TrimTimeline, so two reads bracket a run's launches.
func (d *Device) KernelCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.launches
}

// TrimTimeline discards the retained operation records and wait edges while
// preserving the modeled clocks, the enqueue sequence, pending events, and
// pool accounting. A resident session calls it between checks so a
// long-lived device's log holds one run's operations instead of growing
// with every check served; Timeline and WaitEdges afterwards describe only
// work enqueued since the trim.
func (d *Device) TrimTimeline() {
	d.mu.Lock()
	d.records = nil
	d.waits = nil
	d.mu.Unlock()
}

// WaitEdges returns the cross-stream dependencies that actually deferred
// work, in recording order.
func (d *Device) WaitEdges() []WaitEdge {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]WaitEdge(nil), d.waits...)
}

// DeviceBusy returns the total modeled device-busy time (union of kernel and
// copy intervals across streams), a utilization measure.
func (d *Device) DeviceBusy() time.Duration {
	recs := d.Timeline()
	type span struct{ s, e time.Duration }
	var spans []span
	for _, r := range recs {
		if r.Kind == OpKernel || r.Kind == OpCopy {
			spans = append(spans, span{r.Start, r.End})
		}
	}
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
	var busy time.Duration
	cur := spans[0]
	for _, s := range spans[1:] {
		if s.s > cur.e {
			busy += cur.e - cur.s
			cur = s
			continue
		}
		if s.e > cur.e {
			cur.e = s.e
		}
	}
	busy += cur.e - cur.s
	return busy
}

// PoolStats reports stream-ordered allocator usage.
func (d *Device) PoolStats() (inUse, peak, totalAllocated int64, allocs int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool.inUse, d.pool.peak, d.pool.total, d.pool.allocs
}

// SetMemLimit caps the stream-ordered pool at n bytes; AllocAsync fails
// with a budget error once usage would exceed it. Zero removes the limit.
func (d *Device) SetMemLimit(n int64) {
	d.mu.Lock()
	d.memLimit = n
	d.mu.Unlock()
}

// SetAllocHook installs a fault-injection hook consulted before every
// allocation; a non-nil return fails the allocation with that error. A nil
// hook removes the seam.
func (d *Device) SetAllocHook(hook func(n int64) error) {
	d.mu.Lock()
	d.allocHook = hook
	d.mu.Unlock()
}

// Stream is a CUDA-style in-order operation queue. Operations on one stream
// serialize; operations on different streams overlap on the timeline.
type Stream struct {
	dev   *Device
	name  string
	ready time.Duration // modeled completion time of the last enqueued op
}

// NewStream creates a named stream.
func (d *Device) NewStream(name string) *Stream {
	return &Stream{dev: d, name: name}
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// enqueue records an operation that starts no earlier than both the host
// clock (enqueue time) and the stream's previous completion, and runs for
// dur. Returns the completion time.
func (s *Stream) enqueue(kind OpKind, name string, dur time.Duration, threads int, ops, bytes int64) time.Duration {
	d := s.dev
	d.mu.Lock()
	start := d.hostClock
	if s.ready > start {
		start = s.ready
	}
	end := start + dur
	s.ready = end
	d.records = append(d.records, Record{
		Kind: kind, Name: name, Stream: s.name,
		Start: start, End: end, Threads: threads, Ops: ops, Bytes: bytes,
		Seq: d.seq,
	})
	d.seq++
	if kind == OpKernel {
		d.launches++
	}
	d.mu.Unlock()
	return end
}

// MemcpyAsync models an asynchronous host<->device transfer of n bytes.
func (s *Stream) MemcpyAsync(name string, n int64) {
	s.enqueue(OpCopy, name, s.dev.props.copyDur(n), 0, 0, n)
}

// copyDur prices a transfer of n bytes.
func (p Props) copyDur(n int64) time.Duration {
	if n < 0 {
		panic("gpu: negative copy size")
	}
	return p.CopyOverhead + time.Duration(float64(n)/p.MemBandwidth*float64(time.Second))
}

// AllocAsync models a stream-ordered pool allocation. Pool allocations are
// nearly free on the timeline (the allocator's point); the device tracks
// usage statistics. An allocation that would push pool usage past the
// configured memory limit (SetMemLimit) fails with a typed budget error —
// device OOM is an error the caller degrades on, never a panic. The
// fault-injection hook (SetAllocHook) fails the allocation the same way.
func (s *Stream) AllocAsync(n int64) error {
	d := s.dev
	d.mu.Lock()
	if hook := d.allocHook; hook != nil {
		d.mu.Unlock()
		if err := hook(n); err != nil {
			return fmt.Errorf("gpu: alloc %d bytes: %w", n, err)
		}
		d.mu.Lock()
	}
	if d.memLimit > 0 && d.pool.inUse+n > d.memLimit {
		used := d.pool.inUse
		d.mu.Unlock()
		return &budget.Error{Resource: "device-pool-bytes", Limit: d.memLimit, Used: used + n}
	}
	d.pool.inUse += n
	d.pool.total += n
	d.pool.allocs++
	if d.pool.inUse > d.pool.peak {
		d.pool.peak = d.pool.inUse
	}
	d.mu.Unlock()
	s.enqueue(OpAlloc, "alloc", 0, 0, 0, n)
	return nil
}

// FreeAsync models a stream-ordered pool free.
func (s *Stream) FreeAsync(n int64) {
	d := s.dev
	d.mu.Lock()
	d.pool.inUse -= n
	d.mu.Unlock()
	s.enqueue(OpFree, "free", 0, 0, 0, n)
}

// KernelFunc is one SPMD thread body: it receives the thread id and returns
// the number of abstract operations the thread performed (its cost). Thread
// bodies run sequentially on the host in tid order, so they may share data
// structures without synchronization — exactly like the paper's kernels,
// where each thread writes disjoint output slots.
type KernelFunc func(tid int) (ops int64)

// Kernel is one evaluated launch: the thread bodies have run and their op
// counts are folded into the modeled duration, but nothing has touched a
// device yet. Enqueueing it on a stream fixes its start time.
type Kernel struct {
	Name    string
	Threads int
	Ops     int64 // total thread operations
	Dur     time.Duration
}

// Evaluate runs body for tids 0..n-1 on the calling goroutine and prices the
// launch: warp divergence (a warp costs its slowest thread) over the device's
// lane count, with the critical path (slowest single thread) as a lower
// bound. It is the cost model's single formula — Stream.Launch and
// Tape.Launch both go through it — and a pure function of the properties and
// the bodies' returned op counts: it reads no device state and takes no
// lock, so independent launches may be evaluated on different goroutines.
func (p Props) Evaluate(name string, n int, body KernelFunc) Kernel {
	if n < 0 {
		panic(fmt.Sprintf("gpu: kernel %q with negative thread count", name))
	}
	if p.WarpSize <= 0 {
		panic(fmt.Sprintf("gpu: kernel %q on a device with warp size %d", name, p.WarpSize))
	}
	// Warp by warp (the last may be partial): a warp costs its slowest
	// thread, and the slowest thread overall is the slowest warp's.
	var totalOps, warpCycles, maxThread int64
	for base := 0; base < n; base += p.WarpSize {
		var warpMax int64
		for tid, end := base, min(base+p.WarpSize, n); tid < end; tid++ {
			ops := max(body(tid), 0)
			totalOps += ops
			warpMax = max(warpMax, ops)
		}
		warpCycles += warpMax
		maxThread = max(maxThread, warpMax)
	}

	concurrentWarps := float64(p.lanes()) / float64(p.WarpSize)
	execSec := float64(warpCycles) / concurrentWarps * p.CyclesPerOp / p.ClockHz
	minSec := float64(maxThread) * p.CyclesPerOp / p.ClockHz
	if minSec > execSec {
		execSec = minSec
	}
	dur := p.LaunchOverhead + time.Duration(execSec*float64(time.Second))
	return Kernel{Name: name, Threads: n, Ops: totalOps, Dur: dur}
}

// Launch models a kernel launch of n threads executing body: evaluate, then
// enqueue. Returns the total ops executed, for callers' statistics.
func (s *Stream) Launch(name string, n int, body KernelFunc) int64 {
	k := s.dev.props.Evaluate(name, n, body)
	s.enqueue(OpKernel, k.Name, k.Dur, k.Threads, k.Ops, 0)
	return k.Ops
}

// Tape records device work in program order for a later Replay, so that the
// work can be issued off the live streams — on any goroutine, ahead of its
// turn — and enqueued afterwards in the order one goroutine issuing it live
// would have. It holds:
//
//   - kernel launches, evaluated now (the thread bodies run, the launch is
//     priced) and enqueued on Replay's stream;
//   - copies, frees and synchronizations, each with its stream;
//   - waits: a stream waiting on an event recorded on another stream at that
//     point of the program;
//   - host advances: measured host work that moves the modeled host clock;
//   - marks: points where the replaying caller acts on the live streams
//     itself, with a value only the caller interprets (binding a resident
//     buffer, say, whose upload or reuse depends on what ran before).
//
// A Tape is single-goroutine; Reset recycles its storage.
type Tape struct {
	props Props
	cmds  []tapeCmd
}

// tapeCmd is one recorded command: a timeline record's kind and payload, or
// one of the commands that leave no record.
type tapeCmd struct {
	stream  *Stream // issuing stream (the waiting one for opWait); nil for a launch
	on      *Stream // opWait: the stream whose event is waited on
	kind    OpKind
	name    string        // record name; opHost: the host phase
	dur     time.Duration // record duration; opHost: the measured host time
	threads int
	ops     int64
	bytes   int64
	mark    any // opMark
}

// Commands on a tape that leave no timeline record.
const (
	opWait OpKind = "event-wait"
	opHost OpKind = "host-advance"
	opMark OpKind = "mark"
)

// Reset empties the tape and binds it to the device properties its launches
// and copies are priced with.
func (t *Tape) Reset(p Props) {
	t.props = p
	t.cmds = t.cmds[:0]
}

// Len returns the number of commands on the tape.
func (t *Tape) Len() int { return len(t.cmds) }

// Launch evaluates the kernel and appends it to the tape.
func (t *Tape) Launch(name string, n int, body KernelFunc) int64 {
	k := t.props.Evaluate(name, n, body)
	t.cmds = append(t.cmds, tapeCmd{kind: OpKernel, name: k.Name, dur: k.Dur, threads: k.Threads, ops: k.Ops})
	return k.Ops
}

// MemcpyAsync appends a transfer of n bytes on s.
func (t *Tape) MemcpyAsync(s *Stream, name string, n int64) {
	t.cmds = append(t.cmds, tapeCmd{stream: s, kind: OpCopy, name: name, dur: t.props.copyDur(n), bytes: n})
}

// FreeAsync appends a stream-ordered free of n bytes on s.
func (t *Tape) FreeAsync(s *Stream, n int64) {
	t.cmds = append(t.cmds, tapeCmd{stream: s, kind: OpFree, bytes: n})
}

// Synchronize appends a synchronization of s.
func (t *Tape) Synchronize(s *Stream) {
	t.cmds = append(t.cmds, tapeCmd{stream: s, kind: OpSync})
}

// Wait appends s waiting on an event recorded on `on` at this point.
func (t *Tape) Wait(s, on *Stream) {
	t.cmds = append(t.cmds, tapeCmd{stream: s, on: on, kind: opWait})
}

// HostAdvance appends dt of measured host work done in host phase name.
func (t *Tape) HostAdvance(name string, dt time.Duration) {
	t.cmds = append(t.cmds, tapeCmd{kind: opHost, name: name, dur: dt})
}

// Mark appends a point at which Replay hands m back to its caller.
func (t *Tape) Mark(m any) {
	t.cmds = append(t.cmds, tapeCmd{kind: opMark, mark: m})
}

// Append appends u's commands to t: independently recorded stretches (the
// rows of one rule) join their rule's tape in program order.
func (t *Tape) Append(u *Tape) {
	t.cmds = append(t.cmds, u.cmds...)
}

// Replay issues the tape's commands in recorded order: a launch on s, every
// other device command on the stream it was recorded with. Kernels and copies
// keep their recorded durations and start wherever the live host clock and
// stream frontiers put them, exactly as if issued afresh; a wait records its
// event anew. A host advance is handed to host (nil skips it: the replay of
// work already charged), which moves the clock as it sees fit; a mark is
// handed to mark, whose error ends the replay. Provided the tape was priced
// with the device's properties, the resulting records equal the ones the
// original calls would produce at this point.
func (s *Stream) Replay(t *Tape, mark func(m any) error, host func(name string, dt time.Duration)) error {
	for i := range t.cmds {
		c := &t.cmds[i]
		switch c.kind {
		case OpKernel:
			s.enqueue(OpKernel, c.name, c.dur, c.threads, c.ops, 0)
		case OpFree:
			c.stream.FreeAsync(c.bytes)
		case OpSync:
			c.stream.Synchronize()
		case opWait:
			c.stream.WaitEvent(c.on.RecordEvent())
		case opHost:
			if host != nil {
				host(c.name, c.dur)
			}
		case opMark:
			if err := mark(c.mark); err != nil {
				return err
			}
		default: // copy
			c.stream.enqueue(c.kind, c.name, c.dur, c.threads, c.ops, c.bytes)
		}
	}
	return nil
}

// Synchronize blocks the modeled host until every operation enqueued on the
// stream has completed, advancing the host clock.
func (s *Stream) Synchronize() {
	d := s.dev
	d.mu.Lock()
	d.records = append(d.records, Record{
		Kind: OpSync, Name: "sync", Stream: s.name, Start: d.hostClock, End: d.hostClock,
		Seq: d.seq,
	})
	d.seq++
	if s.ready > d.hostClock {
		d.hostClock = s.ready
	}
	d.mu.Unlock()
}

// Event marks a point in a stream's modeled execution.
type Event struct {
	at     time.Duration
	id     uint64
	stream string
}

// WaitEdge is one cross-stream dependency that actually deferred work: a
// WaitEvent call that pushed the waiting stream's frontier forward to the
// event time. The trace exporter renders these as flow arrows between
// stream tracks.
type WaitEdge struct {
	From string        // stream that recorded the event
	To   string        // stream that waited
	At   time.Duration // event time (= the waiter's new frontier)
	ID   uint64        // event identity (device-wide RecordEvent order)
}

// RecordEvent captures the stream's current completion frontier.
func (s *Stream) RecordEvent() Event {
	d := s.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	e := Event{at: s.ready, id: d.eventSeq, stream: s.name}
	d.eventSeq++
	return e
}

// WaitEvent makes subsequent operations on s wait for the event. An edge is
// recorded only when the wait is binding (it moved the frontier); a wait on
// an already-passed event costs nothing and draws nothing.
func (s *Stream) WaitEvent(e Event) {
	d := s.dev
	d.mu.Lock()
	if e.at > s.ready {
		s.ready = e.at
		d.waits = append(d.waits, WaitEdge{From: e.stream, To: s.name, At: e.at, ID: e.id})
	}
	d.mu.Unlock()
}
