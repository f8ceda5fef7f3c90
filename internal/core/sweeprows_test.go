package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"opendrc/internal/faults"
	"opendrc/internal/gpu"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// The parallel mode simulates sweepline rows concurrently (sweepRowsPar):
// each row evaluates onto its own tape and the tapes replay in row order.
// These tests force every partition row onto the sweepline executor
// (BruteEdgeThreshold 1) and hold the result to the contract: worker count
// changes neither a report byte nor a device record.

var sweepWorkerCounts = []int{1, 2, 4, 7}

// TestSweepRowsWorkerIndependence: canonical reports and the full device
// timeline — every record's kind, name, stream, start, end, threads, ops and
// sequence — are identical for every worker count. The fixed clock zeroes
// measured host time, the only schedule-dependent input of the modeled
// timeline.
func TestSweepRowsWorkerIndependence(t *testing.T) {
	deck := synth.Deck()
	for _, design := range []string{"aes", "uart"} {
		lo, _, err := synth.Load(design, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		var refCanon []byte
		var refTimeline []gpu.Record
		for _, workers := range sweepWorkerCounts {
			rep := runEngine(t, lo, Options{
				Mode: Parallel, Workers: workers, BruteEdgeThreshold: 1,
				Trace: trace.NewWithClock(fixedClock()),
			}, deck)
			if rep.Stats.Rows == 0 {
				t.Fatalf("%s: no partition rows; the test exercises nothing", design)
			}
			canon, timeline := canonicalReport(t, rep), rep.Device.Timeline()
			if refCanon == nil {
				refCanon, refTimeline = canon, timeline
				continue
			}
			if !bytes.Equal(canon, refCanon) {
				t.Errorf("%s: workers=%d canonical report differs from workers=1", design, workers)
			}
			if !reflect.DeepEqual(timeline, refTimeline) {
				t.Errorf("%s: workers=%d device timeline differs from workers=1 (%d vs %d records)",
					design, workers, len(timeline), len(refTimeline))
			}
		}
	}
}

// TestKernelLaunchesCountsRecords pins Stats.KernelLaunches to the launches
// the device actually recorded, on all six designs, with every row on the
// sweepline side and at the default cutoff.
func TestKernelLaunchesCountsRecords(t *testing.T) {
	deck := synth.Deck()
	for _, p := range synth.Designs() {
		lo, _, err := synth.Load(p.Name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Mode: Parallel, BruteEdgeThreshold: 1},
			{Mode: Parallel},
		} {
			rep := runEngine(t, lo, opts, deck)
			kernels := 0
			for _, r := range rep.Device.Timeline() {
				if r.Kind == gpu.OpKernel {
					kernels++
				}
			}
			if rep.Stats.KernelLaunches != kernels || kernels == 0 {
				t.Errorf("%s threshold=%d: KernelLaunches = %d, timeline has %d kernel records",
					p.Name, opts.BruteEdgeThreshold, rep.Stats.KernelLaunches, kernels)
			}
		}
	}
}

// TestSweepRowPanicIsolated: a panic inside one sweep row fails exactly that
// rule, which contributes zero violations — whatever rows other workers had
// finished — and the degraded report is identical for every worker count.
func TestSweepRowPanicIsolated(t *testing.T) {
	lo, _, err := synth.Load("aes", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	const victim = "M1.S.1"
	clean := runEngine(t, lo, Options{Mode: Parallel, BruteEdgeThreshold: 1}, deck).CountByRule()
	if clean[victim] == 0 {
		t.Fatalf("%s finds nothing on the clean run; the test would be vacuous", victim)
	}
	var ref []byte
	for _, workers := range sweepWorkerCounts {
		inj := faults.New(1, faults.Injection{Site: faults.SiteRow, Key: victim + "/sweep-row#3", Mode: faults.Panic})
		rep := runEngine(t, lo, Options{Mode: Parallel, Workers: workers, BruteEdgeThreshold: 1, Faults: inj}, deck)
		if len(rep.Failures) != 1 || rep.Failures[0].Rule != victim || !rep.Failures[0].Panicked {
			t.Fatalf("workers=%d: failures = %+v, want one panic in %s", workers, rep.Failures, victim)
		}
		got := rep.CountByRule()
		if got[victim] != 0 {
			t.Errorf("workers=%d: failed rule still reported %d violations", workers, got[victim])
		}
		for id, n := range clean {
			if id != victim && got[id] != n {
				t.Errorf("workers=%d: rule %s has %d violations, clean run %d", workers, id, got[id], n)
			}
		}
		canon := append(canonicalReport(t, rep), failureFingerprint(rep.Failures)...)
		if ref == nil {
			ref = canon
		} else if !bytes.Equal(canon, ref) {
			t.Errorf("workers=%d: degraded report differs from workers=1", workers)
		}
	}
}

// TestSweepRowCancelLeavesNothingBehind: cancelling while a sweep row is
// parked returns no report, and the engine's recycled shards carry nothing
// of the abandoned rows — hits or tapes — into the next run.
func TestSweepRowCancelLeavesNothingBehind(t *testing.T) {
	lo, _, err := synth.Load("aes", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	want := canonicalReport(t, runEngine(t, lo, Options{Mode: Parallel, BruteEdgeThreshold: 1}, deck))
	for _, workers := range sweepWorkerCounts {
		inj := faults.New(1, faults.Injection{
			Site: faults.SiteRow, Key: "M1.S.1/sweep-row#3", Mode: faults.Stall, Stall: time.Hour,
		})
		e := New(Options{Mode: Parallel, Workers: workers, BruteEdgeThreshold: 1, Faults: inj})
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		rep, err := e.CheckContext(ctx, lo)
		cancel()
		if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: cancelled check returned report=%v err=%v", workers, rep != nil, err)
		}
		e.opts.Faults = nil
		rep, err = e.CheckContext(context.Background(), lo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonicalReport(t, rep), want) {
			t.Errorf("workers=%d: run after a cancelled run differs from a clean run", workers)
		}
	}
}
