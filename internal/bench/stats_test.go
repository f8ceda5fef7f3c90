package bench

import (
	"strings"
	"testing"
	"time"
)

func TestBestDuration(t *testing.T) {
	cases := []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[]time.Duration{5}, 5},
		{[]time.Duration{3, 1, 2}, 1},
		// Contaminated samples — however many — must not move the result:
		// external load only ever adds time, so the min is the estimate of
		// the uncontended cost.
		{[]time.Duration{1000, 11, 900, 1000, 9}, 9},
	}
	for _, c := range cases {
		if got := bestDuration(c.in); got != c.want {
			t.Errorf("best(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// The input must not be reordered (samples stay in run order).
	s := []time.Duration{3, 1, 2}
	bestDuration(s)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("best mutated its input: %v", s)
	}
}

func TestSpeedupGate(t *testing.T) {
	rep := &SpeedupReport{Workers: 4, Rows: []SpeedupRow{
		{Design: "a", Mode: "sequential", Speedup: 1.5, Identical: true},
		{Design: "b", Mode: "parallel", Speedup: 0.93, Identical: true, BelowNoiseFloor: true},
	}}
	if err := rep.Gate(); err != nil {
		t.Errorf("clean report gated: %v", err)
	}
	// Above the floor the threshold is exactly 1.0: no tolerance band.
	rep.Rows = append(rep.Rows, SpeedupRow{Design: "c", Mode: "parallel", Speedup: 0.99, Identical: true})
	err := rep.Gate()
	if err == nil || !strings.Contains(err.Error(), "c/parallel") {
		t.Errorf("sub-1.0 speedup not gated: %v", err)
	}
	rep.Rows = []SpeedupRow{{Design: "d", Mode: "sequential", Speedup: 2, Identical: false}}
	if err := rep.Gate(); err == nil {
		t.Error("non-identical reports not gated")
	}
	rep.Rows = []SpeedupRow{{Design: "e", Mode: "parallel", Speedup: 1.1, Identical: false, BelowNoiseFloor: true}}
	if err := rep.Gate(); err == nil {
		t.Error("non-identical noise-floor row not gated")
	}
}

// TestSpeedupDegenerateReport pins the single-worker case: one report-level
// note, no rows (nothing was measured), and a passing gate.
func TestSpeedupDegenerateReport(t *testing.T) {
	lts, err := Layouts(0.05)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Speedup(lts, 1, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degenerate == "" || len(rep.Rows) != 0 {
		t.Fatalf("workers=1: degenerate_config %q with %d rows; want a note and no rows", rep.Degenerate, len(rep.Rows))
	}
	if err := rep.Gate(); err != nil {
		t.Errorf("degenerate report gated: %v", err)
	}
	var sb strings.Builder
	if _, err := rep.WriteTo(&sb); err != nil || !strings.Contains(sb.String(), "degenerate_config") {
		t.Errorf("text report does not carry the note: %q (%v)", sb.String(), err)
	}
	// With two workers every row is measured and marked against the floor.
	rep, err = Speedup(lts, 2, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degenerate != "" || len(rep.Rows) != 2*len(DesignNames()) {
		t.Fatalf("workers=2: degenerate_config %q with %d rows", rep.Degenerate, len(rep.Rows))
	}
	for _, row := range rep.Rows {
		want := row.Wall1US < noiseFloor.Microseconds() && row.WallNUS < noiseFloor.Microseconds()
		if row.BelowNoiseFloor != want || !row.Identical {
			t.Errorf("%s/%s: below_noise_floor %v (walls %d/%d us), identical %v", row.Design, row.Mode,
				row.BelowNoiseFloor, row.Wall1US, row.WallNUS, row.Identical)
		}
	}
}

func TestReuseGate(t *testing.T) {
	rep := &ReuseReport{Rows: []ReuseRow{
		{Design: "a", Mode: "parallel", Improvement: 1.4, Identical: true},
	}}
	if err := rep.Gate(); err != nil {
		t.Errorf("clean report gated: %v", err)
	}
	rep.Rows = append(rep.Rows, ReuseRow{Design: "b", Mode: "sequential", Improvement: 0.8, Identical: true})
	if err := rep.Gate(); err == nil {
		t.Error("sub-1.0 improvement not gated")
	}
	rep.Rows = []ReuseRow{{Design: "c", Mode: "parallel", Improvement: 1.2, Identical: false}}
	if err := rep.Gate(); err == nil {
		t.Error("non-identical reports not gated")
	}
	// A sub-noise-floor row may dip below 1.0 without gating (its ratio is
	// timer noise), but a mismatched report on such a row still gates.
	rep.Rows = []ReuseRow{{Design: "d", Mode: "sequential", Improvement: 0.9, Identical: true, BelowNoiseFloor: true}}
	if err := rep.Gate(); err != nil {
		t.Errorf("noise-floor row gated on improvement: %v", err)
	}
	rep.Rows = []ReuseRow{{Design: "e", Mode: "sequential", Improvement: 1.1, Identical: false, BelowNoiseFloor: true}}
	if err := rep.Gate(); err == nil {
		t.Error("non-identical noise-floor row not gated")
	}
}

func TestDeltaGate(t *testing.T) {
	f := DeltaFractions()
	small, large := f[0], f[len(f)-1]
	rep := &DeltaReport{Rows: []DeltaRow{
		{Design: "a", Mode: "sequential", EditFraction: small, Speedup: 3, Planned: true, Identical: true},
		{Design: "a", Mode: "sequential", EditFraction: large, Speedup: 0.9, Planned: true, Identical: true}, // only the smallest fraction is speed-gated
		{Design: "b", Mode: "parallel", EditFraction: small, Speedup: 0.9, Planned: true, Identical: true, BelowNoiseFloor: true},
	}}
	if err := rep.Gate(); err != nil {
		t.Errorf("clean report gated: %v", err)
	}
	for _, bad := range []DeltaRow{
		{Design: "c", Mode: "parallel", EditFraction: small, Speedup: 0.99, Planned: true, Identical: true},
		{Design: "d", Mode: "parallel", EditFraction: large, Speedup: 2, Planned: false, Identical: true, BelowNoiseFloor: true},
		{Design: "e", Mode: "parallel", EditFraction: large, Speedup: 2, Planned: true, Identical: false, BelowNoiseFloor: true},
	} {
		rep.Rows = []DeltaRow{bad}
		if err := rep.Gate(); err == nil || !strings.Contains(err.Error(), bad.Design+"/parallel") {
			t.Errorf("row %s not gated: %v", bad.Design, err)
		}
	}
}

// TestReuseNoiseFloorMark pins where the marker comes from — both sides'
// best-of-runs under the floor the reuse, speedup and delta experiments
// share — and the floor itself.
func TestReuseNoiseFloorMark(t *testing.T) {
	if noiseFloor != 10*time.Millisecond {
		t.Fatalf("noise floor = %v, want 10ms (update the docs if intentional)", noiseFloor)
	}
	for _, c := range []struct {
		a, b time.Duration
		want bool
	}{
		{5 * time.Millisecond, 7 * time.Millisecond, true},
		{9 * time.Millisecond, 10 * time.Millisecond, false}, // one side at the floor: measured
		{12 * time.Millisecond, 3 * time.Millisecond, false},
	} {
		if got := belowNoiseFloor(c.a, c.b); got != c.want {
			t.Errorf("belowNoiseFloor(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
