package core

import (
	"fmt"
	"sort"
	"time"

	"opendrc/internal/gpu"
	"opendrc/internal/pool"
	"opendrc/internal/trace"
)

// modeledSpan is one host phase mapped onto the modeled device clock —
// the host side of the overlap analysis, in the device's clock domain.
type modeledSpan struct {
	name string
	s, e time.Duration
}

// ruleWindow brackets one rule's execution: m0/m1 on the modeled clock
// (parallel mode) or the profiler clock (sequential), c0/c1 the device
// record-sequence watermarks (parallel), host the host time charged inside
// the window on the same clock as m0/m1.
type ruleWindow struct {
	rule   string
	m0, m1 time.Duration
	c0, c1 int
	host   time.Duration
}

// RuleTiming is one rule's row in the trace summary.
type RuleTiming struct {
	Rule     string
	SpanUS   int64 // rule start → last attributable device op (its critical path)
	HostUS   int64 // host time charged inside the window
	DeviceUS int64 // device busy time from ops the rule enqueued (parallel mode)
}

// TraceSummary condenses the run timeline into the three numbers the
// paper's overlap argument turns on — device utilization, host/device
// overlap, and the per-rule critical path. Parallel-mode values are on the
// modeled clock; sequential-mode values on the host clock. Times are
// microseconds. The summary holds measured durations, so Stats excludes it
// from JSON serialization.
type TraceSummary struct {
	ModeledUS     int64        // modeled end-to-end (= host wall in sequential mode)
	HostBusyUS    int64        // union of host work spans
	DeviceBusyUS  int64        // union of kernel+copy intervals across streams
	DeviceBusyPct float64      // DeviceBusy / Modeled
	OverlapUS     int64        // host∩device busy time
	OverlapPct    float64      // Overlap / min(HostBusy, DeviceBusy)
	Rules         []RuleTiming // deck order
}

// Critical returns the rule with the longest span (zero RuleTiming when the
// deck is empty).
func (s *TraceSummary) Critical() RuleTiming {
	var best RuleTiming
	for _, r := range s.Rules {
		if r.SpanUS > best.SpanUS || best.Rule == "" {
			best = r
		}
	}
	return best
}

// String renders the compact form printed by odrc -stats.
func (s *TraceSummary) String() string {
	if s == nil {
		return "<no trace>"
	}
	crit := s.Critical()
	return fmt.Sprintf("device busy %.1f%%, host/device overlap %.1f%%, critical rule %s (%dus of %d rules)",
		s.DeviceBusyPct*100, s.OverlapPct*100, crit.Rule, crit.SpanUS, len(s.Rules))
}

// interval is a half-open busy range on one clock.
type interval struct{ s, e time.Duration }

// unionIntervals merges overlapping/abutting intervals; returns a sorted
// disjoint set.
func unionIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].s != ivs[j].s {
			return ivs[i].s < ivs[j].s
		}
		return ivs[i].e < ivs[j].e
	})
	out := []interval{ivs[0]}
	for _, iv := range ivs[1:] {
		cur := &out[len(out)-1]
		if iv.s > cur.e {
			out = append(out, iv)
			continue
		}
		if iv.e > cur.e {
			cur.e = iv.e
		}
	}
	return out
}

// totalIntervals sums a disjoint interval set.
func totalIntervals(ivs []interval) time.Duration {
	var t time.Duration
	for _, iv := range ivs {
		t += iv.e - iv.s
	}
	return t
}

// intersectLen returns how much of [s, e) lies inside the disjoint set.
func intersectLen(ivs []interval, s, e time.Duration) time.Duration {
	var t time.Duration
	for _, iv := range ivs {
		lo, hi := iv.s, iv.e
		if lo < s {
			lo = s
		}
		if hi > e {
			hi = e
		}
		if hi > lo {
			t += hi - lo
		}
	}
	return t
}

// busyIntervals collects the kernel+copy intervals of records whose enqueue
// sequence lies in [c0, c1); pass c0=0, c1=len to cover the whole timeline.
func busyIntervals(recs []gpu.Record, c0, c1 int) []interval {
	var ivs []interval
	for _, r := range recs {
		if int(r.Seq) < c0 || int(r.Seq) >= c1 {
			continue
		}
		if r.Kind == gpu.OpKernel || r.Kind == gpu.OpCopy {
			ivs = append(ivs, interval{r.Start, r.End})
		}
	}
	return unionIntervals(ivs)
}

// buildTraceSummary derives the run's TraceSummary from the captured rule
// windows, modeled host spans, and the device timeline.
func buildTraceSummary(rep *Report) *TraceSummary {
	s := &TraceSummary{ModeledUS: rep.Modeled.Microseconds()}
	if rep.Device == nil {
		s.HostBusyUS = rep.HostWall.Microseconds()
		for _, w := range rep.ruleWindows {
			s.Rules = append(s.Rules, RuleTiming{
				Rule:   w.rule,
				SpanUS: (w.m1 - w.m0).Microseconds(),
				HostUS: w.host.Microseconds(),
			})
		}
		return s
	}
	recs := rep.Device.Timeline()
	// Cover every retained record: sequence numbers are monotonic over the
	// device's lifetime, so on a session device (timeline trimmed between
	// checks) they start above len(recs) — bound by the device's own count,
	// not the slice length.
	busy := busyIntervals(recs, 0, rep.Device.OpCount())
	db := totalIntervals(busy)
	s.DeviceBusyUS = db.Microseconds()
	if rep.Modeled > 0 {
		s.DeviceBusyPct = float64(db) / float64(rep.Modeled)
	}
	var hb, ov time.Duration
	for _, h := range rep.hostSpans {
		hb += h.e - h.s
		ov += intersectLen(busy, h.s, h.e)
	}
	s.HostBusyUS = hb.Microseconds()
	s.OverlapUS = ov.Microseconds()
	den := hb
	if db < den {
		den = db
	}
	if den > 0 {
		s.OverlapPct = float64(ov) / float64(den)
	}
	for _, w := range rep.ruleWindows {
		rt := RuleTiming{Rule: w.rule, HostUS: w.host.Microseconds()}
		ruleBusy := busyIntervals(recs, w.c0, w.c1)
		rt.DeviceUS = totalIntervals(ruleBusy).Microseconds()
		end := w.m1
		if n := len(ruleBusy); n > 0 && ruleBusy[n-1].e > end {
			end = ruleBusy[n-1].e
		}
		rt.SpanUS = (end - w.m0).Microseconds()
		s.Rules = append(s.Rules, rt)
	}
	return s
}

// exportRunTrace emits the run-level tracks that only exist after the check
// finishes: run metadata and, in parallel mode, the device process — the
// modeled-host track, every stream's operations, and the event-wait flow
// edges. (Phases, rules, geocache, and pool tracks were recorded live.)
func exportRunTrace(rec *trace.Recorder, rep *Report, opts Options) {
	rec.SetMeta("mode", rep.Mode.String())
	rec.SetMeta("workers", pool.Workers(opts.Workers))
	rec.SetMeta("host_wall_us", rep.HostWall.Microseconds())
	rec.SetMeta("modeled_us", rep.Modeled.Microseconds())
	if rep.Stats.Trace != nil {
		rec.SetMeta("summary", rep.Stats.Trace.String())
	}
	if rep.Device == nil {
		return
	}
	rec.SetMeta("device", rep.Device.Props().Name)
	for _, h := range rep.hostSpans {
		rec.Span(trace.TrackDevice, "host", h.name, "host-modeled", h.s, h.e)
	}
	for _, op := range rep.Device.Timeline() {
		switch op.Kind {
		case gpu.OpKernel:
			rec.Span(trace.TrackDevice, op.Stream, op.Name, string(op.Kind), op.Start, op.End,
				trace.Arg{Key: "seq", Val: op.Seq},
				trace.Arg{Key: "threads", Val: op.Threads},
				trace.Arg{Key: "ops", Val: op.Ops})
		case gpu.OpCopy:
			rec.Span(trace.TrackDevice, op.Stream, op.Name, string(op.Kind), op.Start, op.End,
				trace.Arg{Key: "seq", Val: op.Seq},
				trace.Arg{Key: "bytes", Val: op.Bytes})
		case gpu.OpAlloc, gpu.OpFree:
			rec.InstantAt(trace.TrackDevice, op.Stream, op.Name, string(op.Kind), op.Start,
				trace.Arg{Key: "seq", Val: op.Seq},
				trace.Arg{Key: "bytes", Val: op.Bytes})
		default: // sync
			rec.InstantAt(trace.TrackDevice, op.Stream, op.Name, string(op.Kind), op.Start,
				trace.Arg{Key: "seq", Val: op.Seq})
		}
	}
	for _, w := range rep.Device.WaitEdges() {
		rec.FlowAt(trace.TrackDevice, w.From, w.To, "event-wait", "dep", w.At, w.At,
			trace.Arg{Key: "event", Val: w.ID})
	}
}
