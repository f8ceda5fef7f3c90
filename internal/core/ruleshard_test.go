package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// Rules run side by side in a check with no context scheduler, sequential
// or parallel; under a scheduler they run one after another on the caller,
// in deck order. Either way the children merge in deck order, so what a
// check returns and what a session commits do not depend on the worker
// count.

// TestRuleWidth pins where rules may overlap.
func TestRuleWidth(t *testing.T) {
	sched := pool.NewScheduler(pool.SchedConfig{Workers: 2})
	defer sched.Close()
	scheduled := pool.WithScheduler(context.Background(), sched)
	for _, tc := range []struct {
		name string
		ctx  context.Context
		mode Mode
		want int
	}{
		{"seq", context.Background(), Sequential, 4},
		{"seq scheduled", scheduled, Sequential, 1},
		{"par", context.Background(), Parallel, 4},
		{"par scheduled", scheduled, Parallel, 1},
	} {
		e := New(Options{Mode: tc.mode, Workers: 4})
		if got := e.ruleWidth(tc.ctx); got != tc.want {
			t.Errorf("%s: rule width %d, want %d", tc.name, got, tc.want)
		}
	}
}

// ruleSpans returns the rule track's spans of an exported trace, ordered by
// start time.
func ruleSpans(t *testing.T, rec *trace.Recorder) []traceSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var out []traceSpan
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "rule" {
			out = append(out, traceSpan{name: ev.Name, start: ev.TS, end: ev.TS + ev.Dur})
		}
	}
	return out
}

type traceSpan struct {
	name       string
	start, end float64
}

// TestRulesSerialWhereTheyMustBe: a check under a scheduler, sequential or
// parallel, runs its rules one after another in deck order — every rule span
// begins after the previous one ended — and yields once per rule boundary,
// on the caller's tenant. A parallel check with no scheduler runs them side
// by side: two rules whose predicates wait for each other both meet.
func TestRulesSerialWhereTheyMustBe(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	for _, tc := range []struct {
		mode  Mode
		sched bool
	}{{Sequential, true}, {Parallel, false}, {Parallel, true}} {
		t.Run(fmt.Sprintf("%v/scheduled=%v", tc.mode, tc.sched), func(t *testing.T) {
			ctx := context.Background()
			if !tc.sched {
				meet, met := rendezvousDeck(20 * time.Second)
				e := New(Options{Mode: tc.mode, Workers: 4})
				if err := e.AddRules(meet...); err != nil {
					t.Fatal(err)
				}
				if _, err := e.CheckContext(ctx, lo); err != nil {
					t.Fatal(err)
				}
				if !met() {
					t.Fatal("the two rules did not run side by side")
				}
				return
			}
			sched := pool.NewScheduler(pool.SchedConfig{Workers: 2})
			defer sched.Close()
			ctx = pool.WithTenant(pool.WithScheduler(ctx, sched), "t")
			defer pool.EnterCtx(ctx)()
			// Each rule span opens and closes with one clock reading, and the
			// clock ticks on every reading: under overlap a span would start
			// before its predecessor's end.
			rec := trace.NewWithClock(tickClock())
			e := New(Options{Mode: tc.mode, Workers: 4, Trace: rec})
			if err := e.AddRules(deck...); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CheckContext(ctx, lo); err != nil {
				t.Fatal(err)
			}
			spans := ruleSpans(t, rec)
			if len(spans) != len(deck) {
				t.Fatalf("%d rule spans, deck has %d rules", len(spans), len(deck))
			}
			for i, s := range spans {
				if s.name != deck[i].ID {
					t.Fatalf("rule span %d is %s, deck rule %d is %s", i, s.name, i, deck[i].ID)
				}
				if i > 0 && s.start < spans[i-1].end {
					t.Fatalf("rule %s starts at %.0fus, before %s ends at %.0fus", s.name, s.start, spans[i-1].name, spans[i-1].end)
				}
			}
			snap := sched.Snapshot()
			if len(snap.Tenants) != 1 || snap.Tenants[0].Yields != uint64(len(deck)) {
				t.Fatalf("scheduler tenants %+v, want one tenant with %d yields", snap.Tenants, len(deck))
			}
		})
	}
}

// recordSnapshot is a session's committed records in least-recently-used
// order: everything but the device tape, which sequential checks leave empty.
type recordSnapshot struct {
	key        ruleKey
	vers       [2]uint64
	full       bool
	stats      Stats
	violations []rules.Violation
}

func snapshotRecords(ses *Session) []recordSnapshot {
	st := &ses.records
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]recordSnapshot, len(st.lru))
	for i, rec := range st.lru {
		out[i] = recordSnapshot{rec.key, rec.vers, rec.full, rec.stats, rec.violations}
	}
	return out
}

// TestSeqSessionWorkerCountIdentity: a sequential session with no scheduler
// runs its rules side by side at Workers 4 and one at a time at Workers 1;
// across check → edit → delta check → check the two return the same report
// bytes, Stats and failures, and commit the same records in the same order.
func TestSeqSessionWorkerCountIdentity(t *testing.T) {
	ctx := context.Background()
	deck := synth.Deck()
	var ses [2]*Session
	for i, workers := range []int{1, 4} {
		lo, _, err := synth.Load("ethmac", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ses[i] = NewSession(lo, Options{Mode: Sequential, Workers: workers})
		defer ses[i].Close(ctx)
	}
	m1 := ses[0].Layout().Top.LayerMBR(layout.LayerM1)
	edit := []layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM1,
		Rect: geom.R(m1.XLo+40, m1.YLo+40, m1.XLo+49, m1.YLo+100)}}
	steps := []struct {
		name string
		op   func(*Session) (*Report, error)
	}{
		{"check", func(s *Session) (*Report, error) { return s.Check(ctx, deck) }},
		{"edit", func(s *Session) (*Report, error) { _, err := s.Edit(ctx, edit); return nil, err }},
		{"delta check", func(s *Session) (*Report, error) { rep, _, err := s.DeltaCheck(ctx, deck); return rep, err }},
		{"check after delta", func(s *Session) (*Report, error) { return s.Check(ctx, deck) }},
	}
	for _, step := range steps {
		var reps [2]*Report
		for i, s := range ses {
			rep, err := step.op(s)
			if err != nil {
				t.Fatalf("%s: workers %d: %v", step.name, s.opts.Workers, err)
			}
			reps[i] = rep
		}
		if reps[0] != nil {
			if canonJSON(t, reps[0]) != canonJSON(t, reps[1]) {
				t.Fatalf("%s: report bytes differ between workers 1 and 4", step.name)
			}
			if reps[0].Stats != reps[1].Stats {
				t.Fatalf("%s: Stats differ:\nworkers 1 %+v\nworkers 4 %+v", step.name, reps[0].Stats, reps[1].Stats)
			}
			if !slices.EqualFunc(reps[0].Failures, reps[1].Failures, func(a, b RuleFailure) bool { return a.Rule == b.Rule && a.Err == b.Err }) {
				t.Fatalf("%s: failures differ", step.name)
			}
			if reps[0].executed != reps[1].executed || reps[0].replayed != reps[1].replayed {
				t.Fatalf("%s: executed/replayed %d/%d vs %d/%d", step.name,
					reps[0].executed, reps[0].replayed, reps[1].executed, reps[1].replayed)
			}
		}
		a, b := snapshotRecords(ses[0]), snapshotRecords(ses[1])
		if len(a) != len(deck) {
			t.Fatalf("%s: %d records, deck has %d rules", step.name, len(a), len(deck))
		}
		if !slices.EqualFunc(a, b, func(x, y recordSnapshot) bool {
			return x.key == y.key && x.vers == y.vers && x.full == y.full && x.stats == y.stats &&
				slices.Equal(x.violations, y.violations)
		}) {
			t.Fatalf("%s: committed records differ between workers 1 and 4", step.name)
		}
	}
}
