package klayout

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/synth"
)

// TestFlatFallsBackToTiling caps the flatten budget below the design's
// instantiation size: flat mode must detect the trip up front, set
// FellBack, and produce the tiling mode's (identical) violations instead of
// materializing the blow-up.
func TestFlatFallsBackToTiling(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	if est := flattenEstimate(lo, r); est < 2 {
		t.Fatalf("flattenEstimate = %d; design too small to trip a budget", est)
	}
	unlimited, err := CheckContext(context.Background(), lo, r, Options{Mode: Flat})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.FellBack {
		t.Fatal("unlimited run fell back")
	}
	capped, err := CheckContext(context.Background(), lo, r, Options{Mode: Flat, Budgets: budget.Limits{MaxFlattenPolys: 1}})
	if err != nil {
		t.Fatalf("capped flat run failed instead of falling back: %v", err)
	}
	if !capped.FellBack {
		t.Fatal("capped flat run did not report the fallback")
	}
	if !reflect.DeepEqual(capped.Violations, unlimited.Violations) {
		t.Fatalf("fallback found %d violations, flat found %d",
			len(capped.Violations), len(unlimited.Violations))
	}
	// A budget above the estimate must not trigger the fallback.
	roomy, err := CheckContext(context.Background(), lo, r, Options{Mode: Flat,
		Budgets: budget.Limits{MaxFlattenPolys: flattenEstimate(lo, r) + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if roomy.FellBack {
		t.Fatal("roomy budget still fell back")
	}
}

// TestTileFaultPropagates injects an error into one tile worker: the run
// must fail cleanly with the injected error, for every worker count.
func TestTileFaultPropagates(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		inj := faults.New(5, faults.Injection{Site: faults.SiteTile, Key: "tile#0", Mode: faults.Error})
		res, err := CheckContext(context.Background(), lo, r, Options{Mode: Tiling, Workers: workers, Faults: inj})
		if res != nil {
			t.Fatalf("workers=%d: faulted tiling run returned a result", workers)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("workers=%d: err = %v, want wrapped ErrInjected", workers, err)
		}
	}
}

// TestCheckContextCancelled covers cancellation in all three modes: a
// cancelled run returns a nil result and an error wrapping ctx.Err().
func TestCheckContextCancelled(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{Flat, Deep, Tiling} {
		res, err := CheckContext(ctx, lo, r, Options{Mode: mode})
		if res != nil {
			t.Fatalf("%v: cancelled run returned a result", mode)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want wrapped context.Canceled", mode, err)
		}
	}
}

// TestTileStallHonorsDeadline parks one tile in an hour-long stall under a
// short deadline: the pooled fan-out must abandon the wait and surface
// DeadlineExceeded instead of hanging.
func TestTileStallHonorsDeadline(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(5, faults.Injection{
		Site: faults.SiteTile, Key: "tile#0", Mode: faults.Stall, Stall: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	var res *Result
	var cerr error
	go func() {
		res, cerr = CheckContext(ctx, lo, r, Options{Mode: Tiling, Workers: 4, Faults: inj})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled tiling run did not return")
	}
	if res != nil {
		t.Fatal("stalled run returned a result")
	}
	if !errors.Is(cerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", cerr)
	}
}
