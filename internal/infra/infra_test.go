package infra

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestProfilerBreakdown(t *testing.T) {
	p := NewProfiler()
	p.Add("partition", 15*time.Millisecond)
	p.Add("sweepline", 35*time.Millisecond)
	p.Add("edge-checks", 50*time.Millisecond)
	if p.Total() != 100*time.Millisecond {
		t.Fatalf("total = %v", p.Total())
	}
	b := p.Breakdown()
	if len(b) != 3 {
		t.Fatalf("phases = %d", len(b))
	}
	// Name order: edge-checks, partition, sweepline.
	if b[1].Name != "partition" || math.Abs(b[1].Fraction-0.15) > 1e-9 {
		t.Errorf("partition share = %+v", b[1])
	}
	if b[0].Name != "edge-checks" || math.Abs(b[0].Fraction-0.50) > 1e-9 {
		t.Errorf("edge-checks share = %+v", b[0])
	}
	// Accumulation into an existing phase.
	p.Add("partition", 5*time.Millisecond)
	if p.Get("partition") != 20*time.Millisecond {
		t.Errorf("accumulated = %v", p.Get("partition"))
	}
}

// TestProfilerBreakdownOrderFree feeds two profilers the same phases
// finishing in different orders — as rules running side by side do — and
// demands the same breakdown and rendering from both.
func TestProfilerBreakdownOrderFree(t *testing.T) {
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"intra:width", 3 * time.Millisecond},
		{"intra:rectilinear", 2 * time.Millisecond},
		{"spacing:sweepline", 5 * time.Millisecond},
		{"intra:width", time.Millisecond},
	}
	var now time.Duration
	feed := func(order []int) *Profiler {
		p := NewProfilerWithClock(func() time.Duration { return now })
		for _, i := range order {
			stop := p.Phase(phases[i].name)
			now += phases[i].d
			stop()
		}
		return p
	}
	a, b := feed([]int{0, 1, 2, 3}), feed([]int{2, 1, 3, 0})
	if !reflect.DeepEqual(a.Breakdown(), b.Breakdown()) {
		t.Fatalf("breakdowns differ:\n%+v\n%+v", a.Breakdown(), b.Breakdown())
	}
	var wa, wb bytes.Buffer
	a.WriteTo(&wa)
	b.WriteTo(&wb)
	if wa.String() != wb.String() {
		t.Fatalf("renderings differ:\n%s\n%s", wa.String(), wb.String())
	}
	if got := a.Breakdown(); len(got) != 3 || got[0].Name != "intra:rectilinear" || got[1].Name != "intra:width" ||
		got[1].Duration != 4*time.Millisecond {
		t.Fatalf("breakdown = %+v", got)
	}
}

func TestProfilerPhaseStopwatch(t *testing.T) {
	p := NewProfiler()
	stop := p.Phase("work")
	time.Sleep(2 * time.Millisecond)
	stop()
	if p.Get("work") < time.Millisecond {
		t.Errorf("phase recorded %v", p.Get("work"))
	}
}

func TestProfilerPhaseStopIdempotent(t *testing.T) {
	var now time.Duration
	p := NewProfilerWithClock(func() time.Duration { return now })
	stop := p.Phase("work")
	now = 7 * time.Millisecond
	if d := stop(); d != 7*time.Millisecond {
		t.Errorf("first stop = %v, want 7ms", d)
	}
	now = 20 * time.Millisecond
	if d := stop(); d != 7*time.Millisecond {
		t.Errorf("second stop = %v, want the original 7ms", d)
	}
	if got := p.Get("work"); got != 7*time.Millisecond {
		t.Errorf("accumulated = %v after double stop, want 7ms", got)
	}
}

func TestProfilerInjectedClock(t *testing.T) {
	var now time.Duration
	p := NewProfilerWithClock(func() time.Duration { return now })
	if p.Elapsed() != 0 {
		t.Errorf("Elapsed = %v at epoch", p.Elapsed())
	}
	now = 3 * time.Millisecond
	if p.Elapsed() != 3*time.Millisecond {
		t.Errorf("Elapsed = %v, want 3ms", p.Elapsed())
	}
	// A nil clock falls back to the wall clock.
	if NewProfilerWithClock(nil).Elapsed() < 0 {
		t.Error("wall-clock Elapsed went backwards")
	}
}

func TestProfilerOnPhaseHook(t *testing.T) {
	var now time.Duration
	p := NewProfilerWithClock(func() time.Duration { return now })
	type span struct {
		name       string
		start, end time.Duration
	}
	var spans []span
	p.OnPhase(func(name string, start, end time.Duration) {
		spans = append(spans, span{name, start, end})
	})
	now = 2 * time.Millisecond
	stop := p.Phase("sweepline")
	now = 5 * time.Millisecond
	stop()
	stop() // idempotent: the hook must not fire again
	p.Add("edge-checks", time.Millisecond)
	if len(spans) != 1 {
		t.Fatalf("hook fired %d times, want 1 (Phase only, not Add)", len(spans))
	}
	want := span{"sweepline", 2 * time.Millisecond, 5 * time.Millisecond}
	if spans[0] != want {
		t.Errorf("hook span = %+v, want %+v", spans[0], want)
	}
	if p.Get("sweepline") != 3*time.Millisecond {
		t.Errorf("accumulated = %v, want 3ms", p.Get("sweepline"))
	}
}

func TestProfilerWriteTo(t *testing.T) {
	p := NewProfiler()
	p.Add("alpha", 25*time.Millisecond)
	p.Add("beta", 75*time.Millisecond)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "75.0%") {
		t.Errorf("output:\n%s", out)
	}
}

func TestProfilerEmpty(t *testing.T) {
	p := NewProfiler()
	if p.Total() != 0 || len(p.Breakdown()) != 0 {
		t.Error("empty profiler not empty")
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debugf("hidden %d", 1)
	l.Infof("shown %d", 2)
	l.Warnf("warned")
	l.Errorf("failed")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug leaked through info level")
	}
	for _, want := range []string{"shown 2", "warned", "failed", "INFO", "WARN", "ERROR"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestLoggerInjectedClock(t *testing.T) {
	var buf bytes.Buffer
	at := time.Date(2024, 3, 1, 9, 30, 15, 250*int(time.Millisecond), time.UTC)
	l := NewLoggerWithClock(&buf, LevelInfo, func() time.Time { return at })
	l.Infof("tick %d", 1)
	at = at.Add(1500 * time.Millisecond)
	l.Warnf("tock")
	want := "09:30:15.250 INFO  tick 1\n09:30:16.750 WARN  tock\n"
	if got := buf.String(); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
	// A nil clock must fall back to the wall clock, not panic.
	NewLoggerWithClock(&buf, LevelInfo, nil).Infof("wall")
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Infof("no crash") // must not panic
	(&Logger{}).Infof("also fine")
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/100", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandChance(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Chance(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Chance(0.3) frequency = %g", frac)
	}
}
