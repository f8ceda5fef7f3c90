// Package infra is OpenDRC's infrastructure layer: the phase profiler
// behind the paper's runtime-breakdown figure, a small leveled logger, and a
// deterministic PRNG for reproducible workload synthesis.
package infra

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// Profiler accumulates named phase durations. It is safe for concurrent use:
// the engine's fan-out phases record per-worker timings into the shared
// profiler, so a phase total is the summed worker time (it can exceed wall
// time when workers overlap — the wall clock is Report.HostWall).
type Profiler struct {
	clock func() time.Duration

	mu     sync.Mutex
	totals map[string]time.Duration
	hook   func(name string, start, end time.Duration)
}

// NewProfiler returns an empty profiler on the wall clock.
func NewProfiler() *Profiler {
	epoch := time.Now()
	return NewProfilerWithClock(func() time.Duration { return time.Since(epoch) })
}

// NewProfilerWithClock returns a profiler reading the given monotonic
// clock — the determinism seam the trace recorder shares, so phase spans
// and trace events live on one timeline. A nil clock selects the wall
// clock.
func NewProfilerWithClock(clock func() time.Duration) *Profiler {
	if clock == nil {
		return NewProfiler()
	}
	return &Profiler{clock: clock, totals: make(map[string]time.Duration)}
}

// Elapsed reads the profiler's clock: time since construction on the
// default wall clock, or whatever the injected clock reports.
func (p *Profiler) Elapsed() time.Duration { return p.clock() }

// OnPhase installs a hook observing every completed Phase as a (name,
// start, end) span on the profiler's clock. The hook fires only for
// Phase-timed intervals — Add and Merge accumulate totals without spans.
// Call before the first Phase; the hook runs outside the profiler's lock.
func (p *Profiler) OnPhase(hook func(name string, start, end time.Duration)) {
	p.mu.Lock()
	p.hook = hook
	p.mu.Unlock()
}

// Phase starts timing a phase; call the returned stop function to finish.
// Stop is idempotent — only the first call accumulates (and reports the
// measured duration); repeats return the same duration without
// re-accumulating.
//
//	stop := prof.Phase("sweepline")
//	... work ...
//	stop()
func (p *Profiler) Phase(name string) func() time.Duration {
	start := p.clock()
	var once sync.Once
	var d time.Duration
	return func() time.Duration {
		once.Do(func() {
			end := p.clock()
			d = end - start
			p.Add(name, d)
			p.mu.Lock()
			hook := p.hook
			p.mu.Unlock()
			if hook != nil {
				hook(name, start, end)
			}
		})
		return d
	}
}

// Add accumulates d into the named phase.
func (p *Profiler) Add(name string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totals[name] += d
}

// Total returns the sum over all phases.
func (p *Profiler) Total() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total()
}

// total sums all phases; callers hold p.mu.
func (p *Profiler) total() time.Duration {
	var t time.Duration
	for _, d := range p.totals {
		t += d
	}
	return t
}

// Share is one row of a runtime breakdown.
type Share struct {
	Name     string
	Duration time.Duration
	Fraction float64 // of the profiler total
}

// Breakdown returns the phases in name order with their fractions — the
// data behind Fig. 4. Name order, not the order phases were first recorded:
// phases of concurrent work finish in whatever order the schedule gives, and
// a breakdown must not depend on it.
func (p *Profiler) Breakdown() []Share {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.total()
	out := make([]Share, 0, len(p.totals))
	for name, d := range p.totals {
		frac := 0.0
		if total > 0 {
			frac = float64(d) / float64(total)
		}
		out = append(out, Share{Name: name, Duration: d, Fraction: frac})
	}
	slices.SortFunc(out, func(a, b Share) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Get returns the accumulated duration of one phase.
func (p *Profiler) Get(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals[name]
}

// WriteTo renders an aligned text breakdown (in Breakdown's name order)
// with a bar chart, e.g. for cmd/odrc-bench -fig 4.
func (p *Profiler) WriteTo(w io.Writer) (int64, error) {
	var n int64
	shares := p.Breakdown()
	width := 0
	for _, s := range shares {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range shares {
		bar := strings.Repeat("#", int(s.Fraction*40+0.5))
		c, err := fmt.Fprintf(w, "%-*s %10v %5.1f%% %s\n", width, s.Name, s.Duration.Round(time.Microsecond), s.Fraction*100, bar)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
