package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// tickClock returns an injectable clock advancing 1µs per reading —
// schedule-independent only while a single goroutine reads it, which holds
// for the sequential mode at workers=1 and never for the parallel mode: its
// prefetch fan-out reads the clock (geocache events) beside the engine
// goroutine whatever Workers says.
func tickClock() func() time.Duration {
	var mu sync.Mutex
	var now time.Duration
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		now += time.Microsecond
		return now
	}
}

// fixedClock never advances: every reading is identical, so even racing
// readers record identical content.
func fixedClock() func() time.Duration {
	return func() time.Duration { return 0 }
}

// exportTrace runs the deck with a recorder attached and returns the
// exported bytes plus the report.
func exportTrace(t *testing.T, mode Mode, workers int, clock func() time.Duration) ([]byte, *Report) {
	t.Helper()
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewWithClock(clock)
	rep := runEngine(t, lo, Options{Mode: mode, Workers: workers, Trace: rec}, synth.Deck())
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestTraceExportByteIdentical pins the determinism contract: repeated runs
// at the same worker count under an injectable clock export byte-identical
// files. Sequential mode uses a ticking clock on the inline path and a fixed
// clock when its rules run side by side; parallel mode uses a fixed clock at
// every worker count, so the prefetch fan-out and the row workers record
// identical content regardless of scheduling.
func TestTraceExportByteIdentical(t *testing.T) {
	cases := []struct {
		name    string
		mode    Mode
		workers int
		clock   func() func() time.Duration
	}{
		{"seq-1worker-ticking", Sequential, 1, tickClock},
		{"seq-4workers-fixed", Sequential, 4, fixedClock},
		{"par-1worker-fixed", Parallel, 1, fixedClock},
		{"par-4workers-fixed", Parallel, 4, fixedClock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := exportTrace(t, tc.mode, tc.workers, tc.clock())
			b, _ := exportTrace(t, tc.mode, tc.workers, tc.clock())
			if !bytes.Equal(a, b) {
				t.Errorf("repeated runs exported different bytes (%d vs %d)", len(a), len(b))
			}
		})
	}
}

// TestTraceExportValidates runs both modes through the structural schema
// gate and checks the expected processes appear.
func TestTraceExportValidates(t *testing.T) {
	seq, _ := exportTrace(t, Sequential, 1, tickClock())
	info, err := trace.Validate(bytes.NewReader(seq))
	if err != nil {
		t.Fatalf("sequential export invalid: %v", err)
	}
	if !hasProc(info.Processes, "host") || !hasProc(info.Processes, "pool") {
		t.Errorf("sequential processes = %v, want host and pool", info.Processes)
	}
	if hasProc(info.Processes, "device (modeled)") {
		t.Error("sequential export grew a device process")
	}

	par, _ := exportTrace(t, Parallel, 2, fixedClock())
	info, err = trace.Validate(bytes.NewReader(par))
	if err != nil {
		t.Fatalf("parallel export invalid: %v", err)
	}
	for _, want := range []string{"host", "pool", "device (modeled)"} {
		if !hasProc(info.Processes, want) {
			t.Errorf("parallel processes = %v, missing %q", info.Processes, want)
		}
	}
}

func hasProc(procs []string, name string) bool {
	for _, p := range procs {
		if p == name {
			return true
		}
	}
	return false
}

// TestTraceReportIdentity: attaching a recorder must not change the report.
// The canonical serialization (violations + stats; TraceSummary is excluded
// from Stats' JSON) must be byte-identical with tracing on and off.
func TestTraceReportIdentity(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	for _, mode := range []Mode{Sequential, Parallel} {
		plain := runEngine(t, lo, Options{Mode: mode, Workers: 2}, deck)
		traced := runEngine(t, lo, Options{Mode: mode, Workers: 2, Trace: trace.NewWithClock(fixedClock())}, deck)
		if !bytes.Equal(canonicalReport(t, plain), canonicalReport(t, traced)) {
			t.Errorf("%s: tracing changed the canonical report", mode)
		}
		if plain.Stats.Trace != nil {
			t.Errorf("%s: untraced run grew a TraceSummary", mode)
		}
		if traced.Stats.Trace == nil {
			t.Errorf("%s: traced run has no TraceSummary", mode)
		}
	}
}

func TestTraceSummaryParallel(t *testing.T) {
	_, rep := exportTrace(t, Parallel, 1, tickClock())
	s := rep.Stats.Trace
	if s == nil {
		t.Fatal("no TraceSummary on a traced run")
	}
	if s.DeviceBusyUS <= 0 {
		t.Error("parallel run reports zero device busy time")
	}
	if s.ModeledUS <= 0 {
		t.Error("zero modeled time")
	}
	if got, want := len(s.Rules), len(synth.Deck()); got != want {
		t.Fatalf("summary has %d rules, deck has %d", got, want)
	}
	for _, r := range s.Rules {
		if r.SpanUS < r.DeviceUS {
			t.Errorf("rule %s: span %dus < device busy %dus", r.Rule, r.SpanUS, r.DeviceUS)
		}
	}
	if crit := s.Critical(); crit.Rule == "" {
		t.Error("no critical rule")
	}
	if s.String() == "<no trace>" {
		t.Error("String rendered the nil form")
	}
}

func TestTraceSummarySequential(t *testing.T) {
	_, rep := exportTrace(t, Sequential, 1, tickClock())
	s := rep.Stats.Trace
	if s == nil {
		t.Fatal("no TraceSummary on a traced run")
	}
	if s.DeviceBusyUS != 0 {
		t.Errorf("sequential run reports device busy %dus", s.DeviceBusyUS)
	}
	if s.HostBusyUS <= 0 {
		t.Error("sequential run reports zero host busy time")
	}
	if got, want := len(s.Rules), len(synth.Deck()); got != want {
		t.Fatalf("summary has %d rules, deck has %d", got, want)
	}
}

// TestTraceNilSummaryString covers the -stats path on an untraced report.
func TestTraceNilSummaryString(t *testing.T) {
	var s *TraceSummary
	if got := s.String(); got != "<no trace>" {
		t.Errorf("nil summary String = %q", got)
	}
}
