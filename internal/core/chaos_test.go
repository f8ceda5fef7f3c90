package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// The chaos suite: every injected fault must end in a clean error or a
// degraded-but-deterministic report — never a crash, a hang, or output that
// depends on the worker count. The injector selects failing work items
// purely from (seed, site, key), so each scenario reproduces bit-identically
// across worker counts and reruns.

// chaosDesigns is the subset of synth designs the heavier matrix tests run
// on; the full six-design sweep lives in TestChaosCancellationAllDesigns.
var chaosDesigns = []string{"uart", "aes"}

func chaosLoad(t *testing.T, design string) *layout.Layout {
	t.Helper()
	lo, _, err := synth.Load(design, 0.2)
	if err != nil {
		t.Fatalf("%s: %v", design, err)
	}
	return lo
}

// failureFingerprint canonicalizes the failure list without the panic
// stacks (stack text contains goroutine IDs and addresses that legitimately
// vary between runs).
func failureFingerprint(fs []RuleFailure) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.Rule)
		b.WriteByte('|')
		b.WriteString(f.Err)
		if f.Panicked {
			b.WriteString("|panic")
		}
		if f.BudgetExceeded {
			b.WriteString("|budget")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runChaos runs the full synth deck with the injector and asserts the
// basic chaos invariant: the run either fails cleanly or returns a report.
func runChaos(t *testing.T, lo *layout.Layout, mode Mode, workers int, inj *faults.Injector) (*Report, error) {
	t.Helper()
	e := New(Options{Mode: mode, Workers: workers, Faults: inj})
	if err := e.AddRules(synth.Deck()...); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil && rep != nil {
		t.Fatalf("mode=%v workers=%d: error AND report returned", mode, workers)
	}
	return rep, err
}

// TestChaosInjectedErrorDeterministic injects an error fault on a rate-
// selected subset of each seam's keys and demands the same degraded report
// from every worker count, in both modes.
func TestChaosInjectedErrorDeterministic(t *testing.T) {
	scenarios := []struct {
		name string
		injs []faults.Injection
	}{
		{"rule-seam", []faults.Injection{{Site: faults.SiteRule, Rate: 3, Mode: faults.Error}}},
		{"cell-seam", []faults.Injection{{Site: faults.SiteCell, Rate: 5, Mode: faults.Error}}},
		{"row-seam", []faults.Injection{{Site: faults.SiteRow, Rate: 7, Mode: faults.Error}}},
		{"alloc-seam", []faults.Injection{{Site: faults.SiteAlloc, Rate: 2, Mode: faults.Error}}},
		{"mixed", []faults.Injection{
			{Site: faults.SiteCell, Rate: 9, Mode: faults.Error},
			{Site: faults.SiteRow, Rate: 11, Mode: faults.Panic},
		}},
	}
	for _, sc := range scenarios {
		for _, design := range chaosDesigns {
			lo := chaosLoad(t, design)
			for _, mode := range []Mode{Sequential, Parallel} {
				var refCanon []byte
				var refFails string
				for _, workers := range []int{1, 2, 4, 8} {
					inj := faults.New(42, sc.injs...)
					rep, err := runChaos(t, lo, mode, workers, inj)
					if err != nil {
						t.Fatalf("%s/%s/%v/w%d: unexpected run error: %v", sc.name, design, mode, workers, err)
					}
					canon := canonicalReport(t, rep)
					fails := failureFingerprint(rep.Failures)
					if refCanon == nil {
						refCanon, refFails = canon, fails
						continue
					}
					if !bytes.Equal(canon, refCanon) {
						t.Errorf("%s/%s/%v: workers=%d report differs from workers=1",
							sc.name, design, mode, workers)
					}
					if fails != refFails {
						t.Errorf("%s/%s/%v: workers=%d failures differ:\n%s\nvs\n%s",
							sc.name, design, mode, workers, fails, refFails)
					}
				}
			}
		}
	}
}

// TestChaosRuleFailureIsolated pins the isolation semantics with a single
// targeted fault: exactly the injected rule fails, it contributes zero
// violations, and every other rule's violations match the fault-free run.
func TestChaosRuleFailureIsolated(t *testing.T) {
	lo := chaosLoad(t, "uart")
	deck := synth.Deck()
	victim := deck[0].ID
	for _, mode := range []Mode{Sequential, Parallel} {
		clean, err := runChaos(t, lo, mode, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(1, faults.Injection{Site: faults.SiteRule, Key: victim, Mode: faults.Error})
		rep, err := runChaos(t, lo, mode, 4, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded || len(rep.Failures) != 1 {
			t.Fatalf("%v: degraded=%v failures=%+v, want exactly the %s failure",
				mode, rep.Degraded, rep.Failures, victim)
		}
		if f := rep.Failures[0]; f.Rule != victim || !strings.Contains(f.Err, "injected") {
			t.Fatalf("%v: failure = %+v", mode, f)
		}
		cleanByRule := clean.CountByRule()
		gotByRule := rep.CountByRule()
		if gotByRule[victim] != 0 {
			t.Errorf("%v: failed rule still reported %d violations", mode, gotByRule[victim])
		}
		for id, n := range cleanByRule {
			if id == victim {
				continue
			}
			if gotByRule[id] != n {
				t.Errorf("%v: rule %s has %d violations degraded vs %d clean", mode, id, gotByRule[id], n)
			}
		}
	}
}

// TestChaosWorkerPanicDeterministic drives panics through the pool workers
// (the cell seam runs inside ForEachCtx) and checks both the stack capture
// and worker-count independence.
func TestChaosWorkerPanicDeterministic(t *testing.T) {
	lo := chaosLoad(t, "aes")
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		inj := faults.New(7, faults.Injection{Site: faults.SiteCell, Rate: 4, Mode: faults.Panic})
		rep, err := runChaos(t, lo, Sequential, workers, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded {
			t.Fatal("rate-4 cell panics degraded nothing; injection selection broken?")
		}
		for _, f := range rep.Failures {
			if !f.Panicked {
				t.Errorf("failure %+v not marked as panic", f)
			}
			if f.Stack == "" {
				t.Errorf("rule %s: panic stack lost", f.Rule)
			}
			if !strings.Contains(f.Err, "injected panic") {
				t.Errorf("rule %s: failure text %q does not carry the panic value", f.Rule, f.Err)
			}
		}
		canon := append(canonicalReport(t, rep), failureFingerprint(rep.Failures)...)
		if ref == nil {
			ref = canon
			continue
		}
		if !bytes.Equal(canon, ref) {
			t.Errorf("workers=%d degraded report differs", workers)
		}
	}
}

// TestChaosDeviceOOM caps the simulated device pool so every transfer
// overflows: parallel-mode rules fail with BudgetExceeded, the run itself
// survives.
func TestChaosDeviceOOM(t *testing.T) {
	lo := chaosLoad(t, "uart")
	e := New(Options{Mode: Parallel, Workers: 4, Budgets: budget.Limits{MaxDeviceBytes: 16}})
	if err := e.AddRules(synth.Deck()...); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil {
		t.Fatalf("device OOM aborted the run: %v", err)
	}
	if !rep.Degraded || len(rep.Failures) == 0 {
		t.Fatal("16-byte device pool degraded nothing")
	}
	for _, f := range rep.Failures {
		if !f.BudgetExceeded {
			t.Errorf("failure %+v not marked BudgetExceeded", f)
		}
		if !strings.Contains(f.Err, "device-pool-bytes") {
			t.Errorf("failure %q does not name the tripped resource", f.Err)
		}
	}
}

// TestChaosFlattenBudget trips the flatten budget in the parallel mode,
// whose spacing rules materialize every instance (the sequential mode never
// flattens).
func TestChaosFlattenBudget(t *testing.T) {
	lo := chaosLoad(t, "uart")
	e := New(Options{Mode: Parallel, Budgets: budget.Limits{MaxFlattenPolys: 1}})
	spacing, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRules(spacing); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil {
		t.Fatalf("flatten budget aborted the run: %v", err)
	}
	if !rep.Degraded || len(rep.Failures) != 1 {
		t.Fatalf("degraded=%v failures=%+v, want one flatten-budget failure", rep.Degraded, rep.Failures)
	}
	f := rep.Failures[0]
	if !f.BudgetExceeded || !strings.Contains(f.Err, "flatten-polys") {
		t.Fatalf("failure = %+v, want a flatten-polys budget trip", f)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("failed rule left %d violations in the report", len(rep.Violations))
	}
}

// TestChaosInjectedAllocOOM drives the allocator seam (as opposed to the
// mem-limit path) and checks the failure is isolated per rule.
func TestChaosInjectedAllocOOM(t *testing.T) {
	lo := chaosLoad(t, "uart")
	inj := faults.New(3, faults.Injection{Site: faults.SiteAlloc, Rate: 1, Mode: faults.Error})
	rep, err := runChaos(t, lo, Parallel, 4, inj)
	if err != nil {
		t.Fatalf("alloc faults aborted the run: %v", err)
	}
	if !rep.Degraded || len(rep.Failures) == 0 {
		t.Fatal("rate-1 alloc faults degraded nothing")
	}
	for _, f := range rep.Failures {
		if !strings.Contains(f.Err, "injected") {
			t.Errorf("failure %q does not come from the injector", f.Err)
		}
	}
}

// TestChaosStallTimeout injects an hour-long stall into the first rule and
// runs under a short deadline: the check must return promptly with an error
// wrapping context.DeadlineExceeded and a nil report — a hung rule cannot
// hang the pipeline.
func TestChaosStallTimeout(t *testing.T) {
	lo := chaosLoad(t, "uart")
	deck := synth.Deck()
	for _, mode := range []Mode{Sequential, Parallel} {
		inj := faults.New(1, faults.Injection{
			Site: faults.SiteRule, Key: deck[0].ID, Mode: faults.Stall, Stall: time.Hour,
		})
		e := New(Options{Mode: mode, Workers: 4, Faults: inj})
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		rep, err := e.CheckContext(ctx, lo)
		cancel()
		if rep != nil {
			t.Fatalf("%v: stalled run returned a report", mode)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: stalled run error = %v, want DeadlineExceeded", mode, err)
		}
	}
}
