package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// The rule records' oracle: a check answered from records must be
// indistinguishable from the same check executed — report bytes, every Stats
// field the executors and the residency plumbing write, and the device
// timeline record for record. The executed side is a second session fed the
// same operations with forceExec set, the one switch that keeps the executed
// path alive as a reference.

// sameStats compares two checks' Stats field for field, except the two
// geometry-cache counters: those report the lookups actually made, and a
// replayed rule makes none.
func sameStats(a, b Stats) bool {
	for _, s := range []*Stats{&a, &b} {
		s.FlattenCacheHits, s.FlattenCacheMisses = 0, 0
	}
	return a == b
}

// sameTimeline compares two device timelines in order, on everything but
// Start, End and Seq (the replayed check's host phases are shorter, so its
// operations start earlier): kind, name, stream, threads, ops, bytes and
// modeled duration.
func sameTimeline(t *testing.T, got, want []gpu.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed timeline has %d records, executed %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gd, wd := g.End-g.Start, w.End-w.Start
		g.Start, g.End, g.Seq, w.Start, w.End, w.Seq = 0, 0, 0, 0, 0, 0
		if g != w || gd != wd {
			t.Fatalf("timeline record %d: replayed %+v (%v), executed %+v (%v)", i, got[i], gd, want[i], wd)
		}
	}
}

func TestReplayedCheckEqualsExecuted(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()
	type variant struct {
		design string
		opts   Options
	}
	var variants []variant
	for _, design := range []string{"aes", "ethmac", "ibex", "jpeg", "sha3", "uart"} {
		variants = append(variants, variant{design, Options{Mode: Sequential}}, variant{design, Options{Mode: Parallel, Workers: 2}})
	}
	// A cutoff low enough that rows take the sweepline executor, whose row
	// tapes replay onto the stream inside the recorded rule.
	variants = append(variants, variant{"uart", Options{Mode: Parallel, BruteEdgeThreshold: 64}})
	for _, v := range variants {
		t.Run(fmt.Sprintf("%s/%v/cutoff%d", v.design, v.opts.Mode, v.opts.BruteEdgeThreshold), func(t *testing.T) {
			var ses [2]*Session
			for i := range ses {
				l, _, err := synth.Load(v.design, 0.25)
				if err != nil {
					t.Fatal(err)
				}
				ses[i] = NewSession(l, v.opts)
				defer ses[i].Close(ctx)
			}
			replay, exec := ses[0], ses[1]
			exec.forceExec = true

			replayed := 0
			check := func(step string, d rules.Deck) {
				t.Helper()
				got, err := replay.Check(ctx, d)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				want, err := exec.Check(ctx, d)
				if err != nil {
					t.Fatalf("%s: executed: %v", step, err)
				}
				if want.replayed != 0 {
					t.Fatalf("%s: the reference session replayed %d rules", step, want.replayed)
				}
				replayed += got.replayed
				if canonJSON(t, got) != canonJSON(t, want) {
					t.Fatalf("%s: replayed report differs from executed", step)
				}
				if !sameStats(got.Stats, want.Stats) {
					t.Fatalf("%s: Stats differ:\nreplayed %+v\nexecuted %+v", step, got.Stats, want.Stats)
				}
				if got.Device != nil {
					sameTimeline(t, got.Device.Timeline(), want.Device.Timeline())
				}
			}
			both := func(step string, op func(*Session) error) {
				t.Helper()
				for _, s := range ses {
					if err := op(s); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				}
			}

			check("cold", deck)
			check("warm", deck)
			if replayed != len(deck) {
				t.Fatalf("warm check replayed %d of %d rules", replayed, len(deck))
			}
			check("single rule", deck[7:8])
			check("sub-deck, reordered", rules.Deck{deck[10], deck[1], deck[7]})
			m1 := replay.Layout().Top.LayerMBR(layout.LayerM1)
			sliver := []layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM1,
				Rect: geom.R(m1.XLo+40, m1.YLo+40, m1.XLo+49, m1.YLo+100)}}
			both("edit", func(s *Session) error { _, err := s.Edit(ctx, sliver); return err })
			check("after edit", deck)
			check("after edit, warm", deck)
			both("invalidate layer", func(s *Session) error { return s.Invalidate(ctx, LayerRegion{Layer: layout.LayerM2}) })
			check("after whole-layer dirt", deck)
			check("after whole-layer dirt, warm", deck)
			// A delta check refreshes the restricted rules' violations without
			// a device log: the next plain check executes those and replays
			// the rest.
			sliver[0].Rect = geom.R(m1.XLo+140, m1.YLo+40, m1.XLo+149, m1.YLo+100)
			both("edit", func(s *Session) error { _, err := s.Edit(ctx, sliver); return err })
			both("delta check", func(s *Session) error { _, _, err := s.DeltaCheck(ctx, deck); return err })
			check("after delta", deck)
			check("after delta, warm", deck)
			both("invalidate all", func(s *Session) error { return s.InvalidateAll(ctx) })
			check("after invalidate-all", deck)
			check("after invalidate-all, warm", deck)
		})
	}
}

// TestRuleRecordKey: the key is the rule's value. Same ID with a different
// threshold, or the same rule around a different predicate, never shares a
// record — and every field of rules.Rule is in the key.
func TestRuleRecordKey(t *testing.T) {
	if got, want := reflect.TypeOf(ruleKey{}).NumField(), reflect.TypeOf(rules.Rule{}).NumField(); got != want {
		t.Fatalf("ruleKey has %d fields, rules.Rule %d: a rule field is missing from the record key", got, want)
	}
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ses := NewSession(lo, Options{Mode: Sequential})
	defer ses.Close(ctx)
	run := func(r rules.Rule) *Report {
		t.Helper()
		rep, err := ses.Check(ctx, rules.Deck{r})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := func(r rules.Rule) string {
		return canonJSON(t, coldReport(t, "uart", 0.2, Options{Mode: Sequential}, rules.Deck{r}, nil))
	}

	w := rules.Layer(layout.LayerM1).Width().AtLeast(synth.MinWidthM1).Named("W")
	wide := rules.Layer(layout.LayerM1).Width().AtLeast(4 * synth.MinWidthM1).Named("W")
	run(w)
	if rep := run(wide); rep.replayed != 0 || canonJSON(t, rep) != cold(wide) {
		t.Fatalf("same ID, different Min: replayed %d, bytes equal cold %v", rep.replayed, canonJSON(t, rep) == cold(wide))
	}
	if rep := run(w); rep.replayed != 1 || canonJSON(t, rep) != cold(w) {
		t.Fatalf("the first rule's record did not survive its namesake: replayed %d", rep.replayed)
	}

	named := rules.Layer(layout.LayerM2).Polygons().Ensure("p", func(o rules.Obj) bool { return o.Name != "" }).Named("P")
	never := rules.Layer(layout.LayerM2).Polygons().Ensure("p", func(o rules.Obj) bool { return false }).Named("P")
	run(named)
	if rep := run(never); rep.replayed != 0 || canonJSON(t, rep) != cold(never) {
		t.Fatalf("two predicates shared a record: replayed %d", rep.replayed)
	}
	if rep := run(named); rep.replayed != 1 || canonJSON(t, rep) != cold(named) {
		t.Fatalf("same predicate: replayed %d", rep.replayed)
	}
}

// TestRuleRecordsNeverAliasReports: scribbling over a returned report's
// violations leaves the next check's answer unchanged.
func TestRuleRecordsNeverAliasReports(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		lo, _, err := synth.Load("ethmac", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ses := NewSession(lo, Options{Mode: mode})
		defer ses.Close(ctx)
		first, err := ses.Check(ctx, deck) // commits the records
		if err != nil {
			t.Fatal(err)
		}
		want := canonJSON(t, first)
		if len(first.Violations) == 0 {
			t.Fatal("fixture has no violations")
		}
		for _, delta := range []bool{false, true} {
			var rep *Report
			if delta {
				rep, _, err = ses.DeltaCheck(ctx, deck)
			} else {
				rep, err = ses.Check(ctx, deck)
			}
			if err != nil {
				t.Fatal(err)
			}
			if canonJSON(t, rep) != want {
				t.Fatalf("%v delta=%v: check differs after a returned report was mutated", mode, delta)
			}
			for i := range rep.Violations {
				rep.Violations[i] = rules.Violation{Rule: "scribble"}
			}
			for i := range first.Violations {
				first.Violations[i] = rules.Violation{Rule: "scribble"}
			}
		}
		if rep, err := ses.Check(ctx, deck); err != nil || canonJSON(t, rep) != want {
			t.Fatalf("%v: final check differs (err %v)", mode, err)
		}
	}
}

// TestInvalidateForcesExecution: Invalidate is for mutations the session
// cannot see, so a region that touches no geometry still puts the layer's
// records behind — the session never second-guesses it.
func TestInvalidateForcesExecution(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	base, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	far := lo.Top.LayerMBR(layout.LayerM1)
	far = geom.R(far.XHi+100000, far.YHi+100000, far.XHi+100010, far.YHi+100010)
	if err := ses.Invalidate(ctx, LayerRegion{Layer: layout.LayerM1, Rects: []geom.Rect{far}}); err != nil {
		t.Fatal(err)
	}
	rep, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	// The four M1 rules and the V1-in-M1 enclosure execute, the rest replay.
	if rep.executed != 5 || rep.replayed != len(deck)-5 {
		t.Fatalf("executed %d, replayed %d", rep.executed, rep.replayed)
	}
	if canonJSON(t, rep) != canonJSON(t, base) {
		t.Fatal("report changed across an invalidation that changed nothing")
	}
	// An empty rect records no dirt.
	if err := ses.Invalidate(ctx, LayerRegion{Layer: layout.LayerM1, Rects: []geom.Rect{geom.EmptyRect()}}); err != nil {
		t.Fatal(err)
	}
	if rep, err := ses.Check(ctx, deck); err != nil || rep.executed != 0 {
		t.Fatalf("empty-rect invalidation: executed %d (err %v)", rep.executed, err)
	}
	st, err := ses.StatsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RulesExecuted != int64(len(deck))+5 || st.RulesReplayed != int64(2*len(deck))-5 || st.ResultBytes == 0 {
		t.Fatalf("session stats = %+v", st)
	}
}

// TestRecordStoreBound: the store never holds more than maxRuleRecords, and
// what it drops is the least recently consulted.
func TestRecordStoreBound(t *testing.T) {
	var st recordStore
	key := func(i int) ruleKey { return ruleKey{id: fmt.Sprint("r", i)} }
	for i := 0; i < maxRuleRecords; i++ {
		st.put(&ruleRecord{key: key(i)})
	}
	if st.get(key(0)) == nil { // consult the oldest: now the most recent
		t.Fatal("record 0 missing below the bound")
	}
	st.put(&ruleRecord{key: key(maxRuleRecords)})
	if st.get(key(1)) != nil {
		t.Fatal("the least recently used record survived past the bound")
	}
	if st.get(key(0)) == nil || st.get(key(maxRuleRecords)) == nil {
		t.Fatal("a recently used record was evicted")
	}
	full := st.bytes()
	st.put(&ruleRecord{key: key(0), violations: make([]rules.Violation, 3)}) // replace in place
	st.mu.Lock()
	held := len(st.lru)
	st.mu.Unlock()
	if held != maxRuleRecords {
		t.Fatalf("%d records held, want %d", held, maxRuleRecords)
	}
	if st.bytes() <= full {
		t.Fatal("replacing a record with a larger one did not grow the books")
	}
	st.reset()
	if st.bytes() != 0 || st.get(key(0)) != nil {
		t.Fatal("reset left records behind")
	}
}

// TestReplayedRuleOnTheTrace: a replayed rule keeps its lifecycle span, with
// status "replayed", and its time is host phase "replay"; the check that
// replays everything enumerates no instances.
func TestReplayedRuleOnTheTrace(t *testing.T) {
	deck := synth.Deck()
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		lo, _, err := synth.Load("uart", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		ses := NewSession(lo, Options{Mode: mode, Trace: rec})
		defer ses.Close(ctx)
		enum := "instance-enumeration"
		if mode == Parallel {
			enum = "par:instance-enumeration"
		}
		cold, err := ses.Check(ctx, deck)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Profile.Get(enum) == 0 || cold.Profile.Get("replay") != 0 {
			t.Fatalf("%v: cold check phases: %s %v, replay %v", mode, enum, cold.Profile.Get(enum), cold.Profile.Get("replay"))
		}
		mark := rec.Len()
		warm, err := ses.Check(ctx, deck)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Profile.Get(enum) != 0 || warm.Profile.Get("replay") == 0 {
			t.Fatalf("%v: replayed check phases: %s %v, replay %v", mode, enum, warm.Profile.Get(enum), warm.Profile.Get("replay"))
		}
		if len(warm.Stats.Trace.Rules) != len(deck) {
			t.Fatalf("%v: trace summary has %d rule rows, want %d", mode, len(warm.Stats.Trace.Rules), len(deck))
		}
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Validate(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := bytes.Count(buf.Bytes(), []byte(`"status":"replayed"`)); got != len(deck) || rec.Len() == mark {
			t.Fatalf("%v: %d rule spans with status replayed, want %d", mode, got, len(deck))
		}
	}
}
