package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"opendrc/internal/faults"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// tieRules are two Custom rules sharing one ID — Deck.Validate allows it —
// whose markers interleave in box order: the one case in which a report's
// per-rule runs, each sorted, are not yet canonical once laid out by ID.
func tieRules() rules.Deck {
	v1 := rules.Layer(layout.LayerV1).Polygons()
	return rules.Deck{
		v1.Ensure("x/50 odd", func(o rules.Obj) bool { return o.Shape.MBR().XLo/50%2 != 0 }).Named("V1.TIE.1"),
		v1.Ensure("x/50 even", func(o rules.Obj) bool { return o.Shape.MBR().XLo/50%2 == 0 }).Named("V1.TIE.1"),
	}
}

// TestReportAssembledInCanonicalOrder: every report the engine returns is in
// rules.Less order — batch or session, executed, replayed, restricted and
// merged, or degraded — though no step sorts the whole report. The deck
// carries tieRules, so the tie path runs on every case; the replayed and
// reordered checks must also equal the batch run byte for byte, which two
// rules of one ID sharing one plan would break.
func TestReportAssembledInCanonicalOrder(t *testing.T) {
	deck := append(synth.Deck(), tieRules()...)
	reversed := slices.Clone(deck)
	slices.Reverse(reversed)
	ctx := context.Background()
	for _, design := range []string{"aes", "ethmac", "ibex", "jpeg", "sha3", "uart"} {
		for _, mode := range []Mode{Sequential, Parallel} {
			t.Run(fmt.Sprintf("%s/%v", design, mode), func(t *testing.T) {
				lo, _ := loadDesign(t, design, 0.2)
				inOrder := func(step string, rep *Report) {
					t.Helper()
					want := slices.Clone(rep.Violations)
					sortViolations(want)
					if !slices.Equal(rep.Violations, want) {
						t.Fatalf("%s: %d violations not in canonical order", step, len(want))
					}
				}
				batch := runEngine(t, lo, Options{Mode: mode}, deck)
				inOrder("batch", batch)
				if batch.CountByRule()["V1.TIE.1"] == 0 {
					t.Fatal("the tie rules flag nothing: the tie path is not exercised")
				}
				ses := NewSession(lo, Options{Mode: mode})
				defer ses.Close(ctx)
				check := func(step string, d rules.Deck) *Report {
					t.Helper()
					rep, err := ses.Check(ctx, d)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					inOrder(step, rep)
					return rep
				}
				check("cold session", deck)
				want := canonJSON(t, batch)
				if rep := check("replay", deck); rep.replayed != len(deck) || canonJSON(t, rep) != want {
					t.Fatalf("replay: %d of %d rules replayed, bytes equal batch %v", rep.replayed, len(deck), canonJSON(t, rep) == want)
				}
				if rep := check("reversed deck", reversed); canonJSON(t, rep) != want {
					t.Fatal("reversed deck: report differs from batch")
				}
				m1 := lo.Top.LayerMBR(layout.LayerM1)
				sliver := []layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM1,
					Rect: geom.R(m1.XLo+40, m1.YLo+40, m1.XLo+49, m1.YLo+100)}}
				if _, err := ses.Edit(ctx, sliver); err != nil {
					t.Fatal(err)
				}
				rep, info, err := ses.DeltaCheck(ctx, deck)
				if err != nil || !info.Planned || info.RulesRestricted == 0 {
					t.Fatalf("delta check: %+v, err %v", info, err)
				}
				inOrder("delta", rep)
				inj := faults.New(42, faults.Injection{Site: faults.SiteCell, Rate: 5, Mode: faults.Error})
				if rep := runEngine(t, lo, Options{Mode: mode, Faults: inj}, deck); !rep.Degraded {
					t.Fatal("the fault injector did not degrade the run")
				} else {
					inOrder("degraded", rep)
				}
			})
		}
	}
}
