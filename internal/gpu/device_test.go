package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"opendrc/internal/budget"
)

func TestKernelFunctionalExecution(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	out := make([]int, 100)
	total := s.Launch("fill", 100, func(tid int) int64 {
		out[tid] = tid * tid
		return 1
	})
	if total != 100 {
		t.Errorf("total ops = %d", total)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestKernelCostModel(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	// A balanced kernel: 1536 threads × 1000 ops each = exactly one op per
	// lane per "cycle batch": warpCycles = 48 warps × 1000; concurrent
	// warps = 1536/32 = 48 ⇒ exec = 1000 × CyclesPerOp / clock.
	s.Launch("balanced", 1536, func(tid int) int64 { return 1000 })
	s.Synchronize()
	bal := d.HostClock()
	p := d.Props()
	secs := 1000 * p.CyclesPerOp / p.ClockHz
	want := time.Duration(secs * float64(time.Second))
	if diff := bal - p.LaunchOverhead - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("balanced kernel time = %v, want ≈ %v + launch", bal, want)
	}

	// An imbalanced kernel with the same total ops must be slower: all work
	// in one thread serializes on the critical path.
	d2 := NewDevice(GTX1660Ti())
	s2 := d2.NewStream("s")
	s2.Launch("imbalanced", 1536, func(tid int) int64 {
		if tid == 0 {
			return 1536 * 1000
		}
		return 0
	})
	s2.Synchronize()
	if d2.HostClock() <= bal {
		t.Errorf("imbalanced (%v) not slower than balanced (%v)", d2.HostClock(), bal)
	}
}

func TestWarpDivergenceCharged(t *testing.T) {
	// Two kernels, same total ops; one diverges within warps (alternating
	// heavy/light threads), one groups heavy threads into whole warps. The
	// divergent one must cost more.
	// Needs more warps than the device runs concurrently (48), otherwise
	// every warp runs in parallel and divergence is invisible.
	run := func(body KernelFunc) time.Duration {
		d := NewDevice(GTX1660Ti())
		s := d.NewStream("s")
		s.Launch("k", 4*1536, body)
		s.Synchronize()
		return d.HostClock()
	}
	divergent := run(func(tid int) int64 {
		if tid%2 == 0 {
			return 200
		}
		return 0
	})
	grouped := run(func(tid int) int64 {
		if (tid/32)%2 == 0 {
			return 200
		}
		return 0
	})
	if divergent <= grouped {
		t.Errorf("divergent %v <= grouped %v; warp divergence not charged", divergent, grouped)
	}
}

func TestStreamSerialization(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	s.Launch("a", 32, func(int) int64 { return 100 })
	s.Launch("b", 32, func(int) int64 { return 100 })
	recs := d.Timeline()
	var a, b Record
	for _, r := range recs {
		switch r.Name {
		case "a":
			a = r
		case "b":
			b = r
		}
	}
	if b.Start < a.End {
		t.Errorf("same-stream ops overlap: a=[%v,%v] b=[%v,%v]", a.Start, a.End, b.Start, b.End)
	}
}

func TestCrossStreamOverlap(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	s1.Launch("k1", 32, func(int) int64 { return 100000 })
	s2.Launch("k2", 32, func(int) int64 { return 100000 })
	recs := d.Timeline()
	var k1, k2 Record
	for _, r := range recs {
		switch r.Name {
		case "k1":
			k1 = r
		case "k2":
			k2 = r
		}
	}
	if k2.Start >= k1.End {
		t.Errorf("different streams did not overlap: k1=[%v,%v] k2=[%v,%v]",
			k1.Start, k1.End, k2.Start, k2.End)
	}
}

func TestCopyOverlappedByHostWork(t *testing.T) {
	// The paper's latency hiding: an async copy issued before host work is
	// hidden when the host work takes longer than the transfer.
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("io")
	s.MemcpyAsync("edges", 1<<20) // ~3.6µs + 8µs overhead
	d.HostAdvance(200 * time.Microsecond)
	before := d.HostClock()
	s.Synchronize() // must not advance the clock: copy long finished
	if d.HostClock() != before {
		t.Errorf("copy was not hidden: clock %v -> %v", before, d.HostClock())
	}
}

func TestSynchronizeAdvancesClock(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	s.MemcpyAsync("big", 1<<30) // ~3.7ms
	s.Synchronize()
	if d.HostClock() < time.Millisecond {
		t.Errorf("sync did not wait for transfer: %v", d.HostClock())
	}
}

func TestEvents(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	prod := d.NewStream("producer")
	cons := d.NewStream("consumer")
	prod.Launch("produce", 32, func(int) int64 { return 50000 })
	ev := prod.RecordEvent()
	cons.WaitEvent(ev)
	cons.Launch("consume", 32, func(int) int64 { return 10 })
	recs := d.Timeline()
	var produce, consume Record
	for _, r := range recs {
		switch r.Name {
		case "produce":
			produce = r
		case "consume":
			consume = r
		}
	}
	if consume.Start < produce.End {
		t.Errorf("consumer ran before event: produce ends %v, consume starts %v",
			produce.End, consume.Start)
	}
}

func TestPoolStats(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	s.AllocAsync(1000)
	s.AllocAsync(500)
	s.FreeAsync(1000)
	s.AllocAsync(200)
	inUse, peak, total, allocs := d.PoolStats()
	if inUse != 700 || peak != 1500 || total != 1700 || allocs != 3 {
		t.Errorf("pool stats: inUse=%d peak=%d total=%d allocs=%d", inUse, peak, total, allocs)
	}
}

func TestDeviceBusy(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	s.Launch("k", 32, func(int) int64 { return 10000 })
	s.Synchronize()
	busy := d.DeviceBusy()
	if busy <= 0 || busy > d.HostClock() {
		t.Errorf("busy = %v, host = %v", busy, d.HostClock())
	}
}

// unitProps is a device whose timeline math is exact: no overheads, no host
// calibration, 1 GB/s bandwidth (1 byte = 1ns), so a copy of n*1000 bytes
// occupies exactly n microseconds.
func unitProps() Props {
	return Props{
		Name: "unit", SMs: 1, LanesPerSM: 32, WarpSize: 32,
		ClockHz: 1e9, CyclesPerOp: 1, MemBandwidth: 1e9,
		HostCalibration: 1,
	}
}

func TestTimelineStableAtSharedFrontier(t *testing.T) {
	// Regression: async ops enqueued across streams at the same frontier
	// share a start time; a start-only unstable sort returned them in
	// nondeterministic order. Timeline must order by (Start, Seq).
	d := NewDevice(unitProps())
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	want := []string{"b", "a", "d", "c"}
	s2.MemcpyAsync("b", 1000)
	s1.MemcpyAsync("a", 1000)
	s2.MemcpyAsync("d", 1000) // starts at s2's new frontier, not 0
	s1.MemcpyAsync("c", 1000)
	// b, a start at 0; d, c start at 1µs — each pair resolved by Seq.
	for trial := 0; trial < 20; trial++ {
		recs := d.Timeline()
		for i, r := range recs {
			if r.Name != want[i] {
				t.Fatalf("trial %d: timeline order %v, want %v (enqueue order within a frontier)",
					trial, names(recs), want)
			}
			if r.Seq != uint64(i) {
				t.Fatalf("record %q Seq = %d, want %d", r.Name, r.Seq, i)
			}
		}
	}
}

func names(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}

func TestDeviceBusyContained(t *testing.T) {
	// A short copy fully inside a longer one adds nothing to the union.
	d := NewDevice(unitProps())
	d.NewStream("a").MemcpyAsync("long", 10000) // [0, 10µs]
	d.NewStream("b").MemcpyAsync("short", 2000) // [0, 2µs] ⊂ [0, 10µs]
	if busy := d.DeviceBusy(); busy != 10*time.Microsecond {
		t.Errorf("busy = %v, want 10µs (contained interval absorbed)", busy)
	}
}

func TestDeviceBusyAbutting(t *testing.T) {
	// Back-to-back intervals (s.s == cur.e) merge without a gap and without
	// double counting the shared endpoint.
	d := NewDevice(unitProps())
	d.NewStream("a").MemcpyAsync("first", 10000) // [0, 10µs]
	d.HostAdvance(10 * time.Microsecond)
	d.NewStream("b").MemcpyAsync("second", 5000) // [10µs, 15µs]
	if busy := d.DeviceBusy(); busy != 15*time.Microsecond {
		t.Errorf("busy = %v, want 15µs (abutting intervals merge)", busy)
	}
}

func TestDeviceBusyOverlapUnionNotSum(t *testing.T) {
	// Overlapping intervals across streams: the union (12µs) is less than
	// the per-stream sum (17µs).
	d := NewDevice(unitProps())
	d.NewStream("a").MemcpyAsync("x", 10000) // [0, 10µs]
	d.HostAdvance(5 * time.Microsecond)
	d.NewStream("b").MemcpyAsync("y", 7000) // [5µs, 12µs]
	if busy := d.DeviceBusy(); busy != 12*time.Microsecond {
		t.Errorf("busy = %v, want 12µs (union, not 17µs sum)", busy)
	}
}

func TestDeviceBusyDisjointGap(t *testing.T) {
	d := NewDevice(unitProps())
	d.NewStream("a").MemcpyAsync("x", 2000) // [0, 2µs]
	d.HostAdvance(10 * time.Microsecond)
	d.NewStream("b").MemcpyAsync("y", 3000) // [10µs, 13µs]
	if busy := d.DeviceBusy(); busy != 5*time.Microsecond {
		t.Errorf("busy = %v, want 5µs (gap excluded)", busy)
	}
}

func TestOpCountBracketsRecords(t *testing.T) {
	d := NewDevice(unitProps())
	s := d.NewStream("s")
	if d.OpCount() != 0 {
		t.Fatalf("fresh device OpCount = %d", d.OpCount())
	}
	c0 := d.OpCount()
	s.MemcpyAsync("in", 1000)
	s.Launch("k", 32, func(int) int64 { return 1 })
	c1 := d.OpCount()
	if c1-c0 != 2 {
		t.Fatalf("bracket saw %d records, want 2", c1-c0)
	}
	// OpCount is also the next Seq: records in [c0, c1) select the bracket.
	for _, r := range d.Timeline() {
		if r.Seq < uint64(c0) || r.Seq >= uint64(c1) {
			t.Errorf("record %q Seq %d outside bracket [%d, %d)", r.Name, r.Seq, c0, c1)
		}
	}
}

func TestWaitEdgesOnlyWhenBinding(t *testing.T) {
	d := NewDevice(unitProps())
	prod := d.NewStream("producer")
	cons := d.NewStream("consumer")
	prod.MemcpyAsync("produce", 10000) // producer frontier: 10µs
	ev := prod.RecordEvent()
	cons.WaitEvent(ev) // binding: consumer frontier 0 -> 10µs
	edges := d.WaitEdges()
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1 binding wait", len(edges))
	}
	e := edges[0]
	if e.From != "producer" || e.To != "consumer" || e.At != 10*time.Microsecond {
		t.Errorf("edge = %+v", e)
	}
	// A wait on an already-passed event must not record an edge.
	cons.WaitEvent(ev)
	late := prod.RecordEvent()
	prod.WaitEvent(late) // self-wait at own frontier: never binding
	if got := len(d.WaitEdges()); got != 1 {
		t.Errorf("edges = %d after non-binding waits, want still 1", got)
	}
	// Distinct RecordEvent calls get distinct ids.
	if ev2 := prod.RecordEvent(); ev2.id == ev.id || ev2.id == late.id {
		t.Errorf("event ids collide: %d %d %d", ev.id, late.id, ev2.id)
	}
}

func TestHostAdvanceNegativeIgnored(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	d.HostAdvance(-time.Second)
	if d.HostClock() != 0 {
		t.Errorf("negative advance changed clock: %v", d.HostClock())
	}
}

// tapeProgram is a launch sequence with the shapes the cost model treats
// differently: whole warps, a trailing partial warp, a single thread, zero
// threads, and an imbalanced kernel bound by its critical path.
func tapeProgram(l interface {
	Launch(string, int, KernelFunc) int64
}) {
	l.Launch("whole-warps", 64, func(tid int) int64 { return int64(tid%7) + 1 })
	l.Launch("partial-warp", 45, func(tid int) int64 { return int64(tid) })
	l.Launch("one-thread", 1, func(int) int64 { return 9 })
	l.Launch("no-threads", 0, func(int) int64 { panic("body of an empty launch ran") })
	l.Launch("critical-path", 4096, func(tid int) int64 {
		if tid == 4095 {
			return 1 << 20
		}
		return 1
	})
	l.Launch("negative-ops", 3, func(int) int64 { return -5 })
}

// TestTapeReplayEqualsDirectLaunch: a tape evaluated off-stream and replayed
// yields exactly the records direct Launch calls yield — kind, name, stream,
// start, end, threads, ops and sequence — with other work before and after
// on the timeline and the host clock advanced in between.
func TestTapeReplayEqualsDirectLaunch(t *testing.T) {
	run := func(taped bool) []Record {
		d := NewDevice(GTX1660Ti())
		io, cs := d.NewStream("h2d"), d.NewStream("checks")
		d.HostAdvance(3 * time.Millisecond)
		io.MemcpyAsync("edges", 1<<20)
		cs.WaitEvent(io.RecordEvent())
		cs.Launch("before", 10, func(int) int64 { return 2 })
		if taped {
			var tape Tape
			tape.Reset(d.Props())
			tapeProgram(&tape)
			if n := d.OpCount(); n != 2 {
				t.Fatalf("evaluating onto a tape touched the device: %d ops", n)
			}
			if err := cs.Replay(&tape, nil, nil); err != nil {
				t.Fatal(err)
			}
			// A reset tape is empty and replays nothing.
			tape.Reset(d.Props())
			if err := cs.Replay(&tape, nil, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			tapeProgram(cs)
		}
		cs.Launch("after", 10, func(int) int64 { return 2 })
		cs.Synchronize()
		if got := d.KernelCount(); got != 8 {
			t.Errorf("KernelCount = %d, want 8", got)
		}
		return d.Timeline()
	}
	direct, replayed := run(false), run(true)
	if len(direct) != len(replayed) {
		t.Fatalf("direct run has %d records, replayed %d", len(direct), len(replayed))
	}
	for i := range direct {
		if direct[i] != replayed[i] {
			t.Errorf("record %d differs:\n direct   %+v\n replayed %+v", i, direct[i], replayed[i])
		}
	}
}

// TestKernelCountSurvivesTrim: the launch counter brackets a run on a
// long-lived device whose timeline is trimmed between checks.
func TestKernelCountSurvivesTrim(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	s.Launch("a", 1, func(int) int64 { return 1 })
	s.MemcpyAsync("copy", 8) // not a kernel
	d.TrimTimeline()
	s.Launch("b", 1, func(int) int64 { return 1 })
	if got := d.KernelCount(); got != 2 {
		t.Errorf("KernelCount = %d, want 2", got)
	}
}

// TestEvaluateAllocFree: pricing a launch allocates nothing, whatever the
// thread count — the per-thread fold is scalar.
func TestEvaluateAllocFree(t *testing.T) {
	p := GTX1660Ti()
	body := func(tid int) int64 { return int64(tid & 15) }
	var sink Kernel
	allocs := testing.AllocsPerRun(20, func() { sink = p.Evaluate("k", 10000, body) })
	if allocs != 0 {
		t.Errorf("Evaluate allocated %v times per 10000-thread launch", allocs)
	}
	if sink.Threads != 10000 {
		t.Fatalf("Threads = %d", sink.Threads)
	}
	// A warm tape records without allocating either.
	var tape Tape
	tape.Reset(p)
	tape.Launch("k", 64, body)
	allocs = testing.AllocsPerRun(20, func() {
		tape.Reset(p)
		tape.Launch("k", 64, body)
	})
	if allocs != 0 {
		t.Errorf("warm Tape.Launch allocated %v times", allocs)
	}
}

// evaluateReference is Evaluate's fold as first written: one pass over the
// threads with a modulo per thread to close each warp.
func evaluateReference(p Props, name string, n int, body KernelFunc) Kernel {
	var totalOps, warpCycles, warpMax, maxThread int64
	for tid := 0; tid < n; tid++ {
		ops := body(tid)
		if ops < 0 {
			ops = 0
		}
		totalOps += ops
		if ops > warpMax {
			warpMax = ops
		}
		if ops > maxThread {
			maxThread = ops
		}
		if (tid+1)%p.WarpSize == 0 {
			warpCycles += warpMax
			warpMax = 0
		}
	}
	warpCycles += warpMax // trailing partial warp
	concurrentWarps := float64(p.lanes()) / float64(p.WarpSize)
	execSec := float64(warpCycles) / concurrentWarps * p.CyclesPerOp / p.ClockHz
	minSec := float64(maxThread) * p.CyclesPerOp / p.ClockHz
	if minSec > execSec {
		execSec = minSec
	}
	dur := p.LaunchOverhead + time.Duration(execSec*float64(time.Second))
	return Kernel{Name: name, Threads: n, Ops: totalOps, Dur: dur}
}

// TestEvaluateMatchesReference holds the warp-by-warp fold to the modulo
// one on random op vectors, negative ops included: no threads, fewer than a
// warp, whole warps and a ragged last warp, under two warp sizes, with ops
// small enough that the critical path binds and large enough that it does
// not.
func TestEvaluateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, warp := range []int{32, 7} {
		p := GTX1660Ti()
		p.WarpSize = warp
		for _, n := range []int{0, 1, warp - 1, warp, warp + 1, 3 * warp, 5*warp + 3, 1000} {
			for _, spread := range []int64{1, 50, 1 << 20} {
				for range 20 {
					ops := make([]int64, n)
					for i := range ops {
						ops[i] = rng.Int63n(2*spread+1) - spread/2
					}
					body := func(tid int) int64 { return ops[tid] }
					got, want := p.Evaluate("k", n, body), evaluateReference(p, "k", n, body)
					if got != want {
						t.Fatalf("warp %d, %d threads, ops %v: Evaluate = %+v, reference %+v", warp, n, ops, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluateRejectsWarpSize: a device with no warp width panics instead of
// looping forever.
func TestEvaluateRejectsWarpSize(t *testing.T) {
	p := GTX1660Ti()
	p.WarpSize = 0
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate with warp size 0 did not panic")
		}
	}()
	p.Evaluate("k", 4, func(int) int64 { return 1 })
}

// ruleProgram is one rule's worth of device traffic across two streams,
// issued live or onto a tape: host work, a mark where the caller uploads a
// buffer itself, a kernel ordered after the upload by an event, more host
// work, a synchronization and the free.
type ruleProgram struct {
	io, cs *Stream
}

// upload is what the program's mark does on the live streams.
func (p ruleProgram) upload() error {
	if err := p.io.AllocAsync(1 << 20); err != nil {
		return err
	}
	p.io.MemcpyAsync("edges", 1<<20)
	return nil
}

func (p ruleProgram) body(tid int) int64 { return int64(tid%5) + 1 }

// live issues the program on the streams, the host work as HostAdvance.
func (p ruleProgram) live(t *testing.T, d *Device) {
	t.Helper()
	d.HostAdvance(3 * time.Millisecond)
	if err := p.upload(); err != nil {
		t.Fatal(err)
	}
	p.cs.WaitEvent(p.io.RecordEvent())
	p.cs.Launch("check", 100, p.body)
	d.HostAdvance(time.Millisecond)
	p.io.MemcpyAsync("table", 4096)
	p.cs.WaitEvent(p.io.RecordEvent())
	p.cs.Synchronize()
	p.io.FreeAsync(1 << 20)
}

// record puts the same program on a tape.
func (p ruleProgram) record(tape *Tape) {
	tape.HostAdvance("prep", 3*time.Millisecond)
	tape.Mark("upload")
	tape.Wait(p.cs, p.io)
	tape.Launch("check", 100, p.body)
	tape.HostAdvance("pack", time.Millisecond)
	tape.MemcpyAsync(p.io, "table", 4096)
	tape.Wait(p.cs, p.io)
	tape.Synchronize(p.cs)
	tape.FreeAsync(p.io, 1<<20)
}

// TestTapeReplayEqualsReissue: replaying a recorded rule yields exactly the
// records, wait edges, pool accounting and host clock that issuing it live
// yields, with other work on the timeline before it — its marks handed back
// in order, its host advances handed to the caller with their phase names.
func TestTapeReplayEqualsReissue(t *testing.T) {
	run := func(replay bool) ([]Record, []WaitEdge, [4]int64, time.Duration) {
		d := NewDevice(GTX1660Ti())
		p := ruleProgram{d.NewStream("h2d"), d.NewStream("checks")}
		p.cs.Launch("before", 10, func(int) int64 { return 2 })
		d.HostAdvance(2 * time.Millisecond)
		if replay {
			var tape Tape
			tape.Reset(d.Props())
			p.record(&tape)
			if n := d.OpCount(); n != 1 {
				t.Fatalf("recording onto a tape touched the device: %d ops", n)
			}
			if got := tape.Len(); got != 9 {
				t.Fatalf("tape holds %d commands, want 9", got)
			}
			var marks, phases []string
			err := p.cs.Replay(&tape, func(m any) error {
				marks = append(marks, m.(string))
				return p.upload()
			}, func(name string, dt time.Duration) {
				phases = append(phases, name)
				d.HostAdvance(dt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(marks, phases) != "[upload] [prep pack]" {
				t.Fatalf("replay handed back marks %v and host phases %v", marks, phases)
			}
		} else {
			p.live(t, d)
		}
		inUse, peak, total, allocs := d.PoolStats()
		return d.Timeline(), d.WaitEdges(), [4]int64{inUse, peak, total, int64(allocs)}, d.HostClock()
	}
	wantRecs, wantWaits, wantPool, wantClock := run(false)
	gotRecs, gotWaits, gotPool, gotClock := run(true)
	if len(gotRecs) != len(wantRecs) || len(wantRecs) != 7 {
		t.Fatalf("replay enqueued %d records, reissue %d (want 7)", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Errorf("record %d differs:\n reissued %+v\n replayed %+v", i, wantRecs[i], gotRecs[i])
		}
	}
	if len(gotWaits) != 2 || len(wantWaits) != 2 || gotWaits[0] != wantWaits[0] || gotWaits[1] != wantWaits[1] {
		t.Errorf("wait edges: reissued %+v, replayed %+v", wantWaits, gotWaits)
	}
	if gotPool != wantPool {
		t.Errorf("pool accounting: reissued %v, replayed %v", wantPool, gotPool)
	}
	if gotClock != wantClock {
		t.Errorf("host clock: reissued %v, replayed %v", wantClock, gotClock)
	}
}

// TestReplayAllocFailure: an allocation a mark makes goes through the pool,
// so it can fail — and ends the replay with the allocator's error, enqueueing
// nothing after it.
func TestReplayAllocFailure(t *testing.T) {
	d := NewDevice(GTX1660Ti())
	s := d.NewStream("s")
	var tape Tape
	tape.Reset(d.Props())
	tape.Mark(int64(100))
	tape.Launch("k", 1, func(int) int64 { return 1 })
	d.SetMemLimit(150)
	alloc := func(m any) error { return s.AllocAsync(m.(int64)) }
	if err := s.Replay(&tape, alloc, nil); err != nil {
		t.Fatal(err)
	}
	n := d.OpCount()
	if err := s.Replay(&tape, alloc, nil); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("Replay = %v, want a device-pool budget error", err)
	}
	if d.OpCount() != n {
		t.Fatal("commands after the failed allocation were enqueued")
	}
}
