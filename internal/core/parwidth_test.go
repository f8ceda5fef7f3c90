package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/gpu"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// A parallel check runs its rules side by side, each recording its device
// work on its own tape, and settles them in deck order: the tapes replay onto
// the live streams, and every decision that depends on the rules before a
// rule — upload or reuse, eviction, the packed-edges budget, the pool limit,
// an allocator fault — is taken there. So nothing a check returns depends on
// the worker count, degraded checks included.

// parWidths are the worker counts the identity tests compare.
var parWidths = []int{1, 2, 8}

// bySeq returns the device timeline in enqueue order: the order settling
// fixes, where Timeline's start-time order also depends on measured host
// time.
func bySeq(dev *gpu.Device) []gpu.Record {
	recs := dev.Timeline()
	slices.SortFunc(recs, func(a, b gpu.Record) int { return int(a.Seq) - int(b.Seq) })
	return recs
}

// sameAtEveryWidth runs deck on lo in parallel mode at each of parWidths and
// requires what the first returns at every other: canonical bytes, Stats,
// failures (rule and message) and the device timeline, record for record up
// to start, end and sequence. It returns the first width's report.
func sameAtEveryWidth(t *testing.T, lo *layout.Layout, opts Options, deck rules.Deck) *Report {
	t.Helper()
	var ref *Report
	for _, w := range parWidths {
		opts.Mode, opts.Workers = Parallel, w
		e := New(opts)
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		rep, err := e.CheckContext(context.Background(), lo)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if canonJSON(t, rep) != canonJSON(t, ref) {
			t.Fatalf("workers %d: canonical report differs from workers %d", w, parWidths[0])
		}
		if rep.Stats != ref.Stats {
			t.Fatalf("workers %d: Stats differ:\n%+v\nworkers %d:\n%+v", w, rep.Stats, parWidths[0], ref.Stats)
		}
		if failureFingerprint(rep.Failures) != failureFingerprint(ref.Failures) {
			t.Fatalf("workers %d: failures %s, workers %d: %s", w, failureFingerprint(rep.Failures), parWidths[0], failureFingerprint(ref.Failures))
		}
		sameTimeline(t, bySeq(rep.Device), bySeq(ref.Device))
	}
	return ref
}

// TestParRuleWidthIdentity: on every design, a parallel check at 1, 2 and 8
// workers returns the same canonical bytes, Stats and failures, and leaves
// the same device timeline.
func TestParRuleWidthIdentity(t *testing.T) {
	deck := synth.Deck()
	for _, design := range []string{"aes", "ethmac", "ibex", "jpeg", "sha3", "uart"} {
		t.Run(design, func(t *testing.T) {
			lo, _, err := synth.Load(design, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if rep := sameAtEveryWidth(t, lo, Options{}, deck); rep.Degraded {
				t.Fatalf("degraded: %s", failureFingerprint(rep.Failures))
			}
		})
	}
}

// TestParRuleWidthDegradedIdentity: a packed-edges budget, a device-bytes
// budget and a seeded allocator fault each fail the same rules with the same
// messages at every width, and a pool limit just under the run's peak evicts
// the same buffers — each is decided in deck order as the tapes replay,
// whichever rule finished executing first. The packed-edges limit is one
// edge short of the run's total, so the last rule to upload fails.
func TestParRuleWidthDegradedIdentity(t *testing.T) {
	lo, _, err := synth.Load("ethmac", 1)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	full := runEngine(t, lo, Options{Mode: Parallel}, deck)
	_, peak, _, _ := full.Device.PoolStats()
	for _, tc := range []struct {
		name  string
		opts  Options
		fails bool
	}{
		{"packed edges", Options{Budgets: budget.Limits{MaxPackedEdges: int64(full.Stats.EdgesPacked - 1)}}, true},
		{"device bytes", Options{Budgets: budget.Limits{MaxDeviceBytes: peak / 2}}, true},
		{"device bytes, evicting", Options{Budgets: budget.Limits{MaxDeviceBytes: peak - 1}}, false},
		{"alloc fault", Options{Faults: faults.New(11, faults.Injection{Site: faults.SiteAlloc, Rate: 2, Mode: faults.Error})}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := sameAtEveryWidth(t, lo, tc.opts, deck)
			switch {
			case !tc.fails && (rep.Degraded || rep.Stats.DeviceEvictions == 0):
				t.Fatalf("want evictions and no failure: %d evictions, failures %s", rep.Stats.DeviceEvictions, failureFingerprint(rep.Failures))
			case tc.fails && !rep.Degraded:
				t.Fatal("nothing failed")
			case len(rep.Failures) == len(deck):
				t.Fatal("every rule failed: the case decides nothing about order")
			}
		})
	}
}

// rendezvousDeck is two custom rules each of whose predicates, on its first
// call, waits for the other's first call, for at most wait. met reports
// whether both waits ended in the meeting: only a check that runs the two
// rules side by side gets there; one that runs them one after another waits
// out the first rule's timeout.
func rendezvousDeck(wait time.Duration) (deck rules.Deck, met func() bool) {
	var started [2]chan struct{}
	var once [2]sync.Once
	var meetings [2]bool
	for k := range started {
		started[k] = make(chan struct{})
	}
	for k, l := range []layout.Layer{layout.LayerM2, layout.LayerM3} {
		pred := func(rules.Obj) bool {
			once[k].Do(func() {
				close(started[k])
				select {
				case <-started[1-k]:
					meetings[k] = true
				case <-time.After(wait):
				}
			})
			return true
		}
		deck = append(deck, rules.Layer(l).Polygons().Ensure("meet", pred).Named(fmt.Sprintf("MEET.%d", k)))
	}
	// The checks wait for their fan-outs, whose predicate calls ran each Once
	// to completion, before met is read.
	return deck, func() bool { return meetings[0] && meetings[1] }
}
