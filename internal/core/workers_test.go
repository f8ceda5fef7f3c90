package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// canonicalReport serializes the worker-count-independent parts of a report
// (sorted violations and scheduling counters) so runs can be compared
// byte for byte.
func canonicalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Violations []rules.Violation
		Stats      Stats
	}{rep.Violations, rep.Stats})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWorkerCountDeterminism demands byte-identical sorted reports from
// Workers=1 and Workers=8 on every synth design profile, in both engine
// modes: the fan-out must not change what the engine finds or counts.
func TestWorkerCountDeterminism(t *testing.T) {
	deck := synth.Deck()
	for _, design := range []string{"aes", "ethmac", "ibex", "jpeg", "sha3", "uart"} {
		lo, _, err := synth.Load(design, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		for _, mode := range []Mode{Sequential, Parallel} {
			var ref []byte
			for _, workers := range []int{1, 8} {
				rep := runEngine(t, lo, Options{Mode: mode, Workers: workers}, deck)
				got := canonicalReport(t, rep)
				if ref == nil {
					ref = got
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("%s %s: workers=8 report differs from workers=1 (%d vs %d bytes)",
						design, mode, len(got), len(ref))
				}
			}
		}
	}
}

// TestWorkerCountDeterminismRepeatedRuns pins down run-to-run determinism at
// a fixed worker count: goroutine scheduling must never leak into the
// report.
func TestWorkerCountDeterminismRepeatedRuns(t *testing.T) {
	lo, _, err := synth.Load("aes", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	var ref []byte
	for i := 0; i < 3; i++ {
		rep := runEngine(t, lo, Options{Mode: Sequential, Workers: 4}, deck)
		got := canonicalReport(t, rep)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}

// TestDedupViolationsLeavesInputUnchanged is the regression test for the
// old in-place compaction: DedupViolations must return a fresh slice and
// leave the caller's slice exactly as passed (content and order).
func TestDedupViolationsLeavesInputUnchanged(t *testing.T) {
	mk := func(rule string, x int64) rules.Violation {
		v := rules.Violation{Rule: rule}
		v.Marker.Box.XLo, v.Marker.Box.XHi = x, x+10
		v.Marker.Box.YLo, v.Marker.Box.YHi = 0, 10
		return v
	}
	in := []rules.Violation{
		mk("B", 30), mk("A", 10), mk("B", 30), mk("A", 20), mk("A", 10),
	}
	orig := append([]rules.Violation(nil), in...)
	out := DedupViolations(in)
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("input mutated:\n got %v\nwant %v", in, orig)
	}
	if len(out) != 3 {
		t.Fatalf("deduped to %d violations, want 3: %v", len(out), out)
	}
	// The result must be detached: writing to it must not touch the input.
	for i := range out {
		out[i].Rule = "CLOBBER"
	}
	if !reflect.DeepEqual(in, orig) {
		t.Fatal("result aliases the input slice")
	}
}

// TestWorkerPanicPropagates ensures a panicking custom rule — running on
// pool workers — is isolated into a structured RuleFailure carrying the
// worker's stack, instead of crashing the run (the pre-hardening behavior)
// or being silently swallowed.
func TestWorkerPanicPropagates(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Mode: Sequential, Workers: 8})
	boom := rules.Layer(19).Polygons().Ensure("boom", func(rules.Obj) bool {
		panic("rule panic")
	})
	if err := e.AddRules(boom); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not degraded after worker panic")
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly one", rep.Failures)
	}
	f := rep.Failures[0]
	if !strings.Contains(f.Rule, "boom") {
		t.Errorf("failed rule = %q, want the boom rule", f.Rule)
	}
	if !f.Panicked {
		t.Error("failure not marked as panic")
	}
	if !strings.Contains(f.Err, "rule panic") {
		t.Errorf("failure text %q does not carry the panic value", f.Err)
	}
	if f.Stack == "" {
		t.Error("worker stack lost")
	}
}
