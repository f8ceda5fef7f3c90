package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"opendrc/internal/checks"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/klayout"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
	"opendrc/internal/xcheck"
)

// loadDesign builds a scaled benchmark design once per test binary.
func loadDesign(t *testing.T, name string, scale float64) (*layout.Layout, synth.Expected) {
	t.Helper()
	lo, exp, err := synth.Load(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return lo, exp
}

func runEngine(t *testing.T, lo *layout.Layout, opts Options, deck rules.Deck) *Report {
	t.Helper()
	e := New(opts)
	if err := e.AddRules(deck...); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func buildLayout(t *testing.T, lib *gdsii.Library) *layout.Layout {
	t.Helper()
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func ring(x0, y0, x1, y1 int64) []geom.Point {
	return []geom.Point{
		geom.Pt(x0, y0), geom.Pt(x0, y1), geom.Pt(x1, y1), geom.Pt(x1, y0),
	}
}

// expectedByRule maps injected counts onto deck rule IDs.
func expectedByRule(exp synth.Expected) map[string]int {
	return map[string]int{
		"M1.RECT.1":  exp.NonRectil,
		"M1.W.1":     exp.WidthM1,
		"M2.W.1":     0,
		"M3.W.1":     0,
		"M1.A.1":     exp.AreaM1,
		"M2.A.1":     0,
		"M3.A.1":     0,
		"M1.S.1":     exp.NotchM1,
		"M2.S.1":     exp.SpaceM2,
		"M3.S.1":     exp.SpaceM3,
		"V1.M1.EN.1": exp.EnclV1,
		"V2.M2.EN.1": exp.EnclV2M2,
		"V2.M3.EN.1": exp.EnclV2M3,
		"M2.NAME.1":  exp.UnnamedM2,
	}
}

func TestSequentialFindsExactlyInjectedViolations(t *testing.T) {
	lo, exp := loadDesign(t, "uart", 1)
	rep := runEngine(t, lo, Options{Mode: Sequential}, synth.Deck())
	got := rep.CountByRule()
	for rule, want := range expectedByRule(exp) {
		if got[rule] != want {
			t.Errorf("%s: found %d violations, injected %d", rule, got[rule], want)
		}
	}
	if exp.Total == 0 {
		t.Fatal("no injections generated; test is vacuous")
	}
}

func TestSequentialCleanDesignIsClean(t *testing.T) {
	p, err := synth.Design("uart")
	if err != nil {
		t.Fatal(err)
	}
	p.InjectEvery = 0
	p.InjectDiagonal = false
	lib, exp := p.Generate()
	if exp.Total != 0 {
		t.Fatalf("injection disabled but expected %d", exp.Total)
	}
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	rep := runEngine(t, lo, Options{Mode: Sequential}, synth.Deck())
	if len(rep.Violations) != 0 {
		for i, v := range rep.Violations {
			if i > 10 {
				break
			}
			t.Logf("violation: %s %v cell=%s", v.Rule, v.Marker.Box, v.Cell)
		}
		t.Errorf("clean design produced %d violations", len(rep.Violations))
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	lo, exp := loadDesign(t, "uart", 1)
	seq := runEngine(t, lo, Options{Mode: Sequential}, synth.Deck())
	par := runEngine(t, lo, Options{Mode: Parallel}, synth.Deck())

	sv := DedupViolations(append([]rules.Violation(nil), seq.Violations...))
	pv := DedupViolations(append([]rules.Violation(nil), par.Violations...))
	if len(sv) != len(pv) {
		t.Fatalf("dedup counts differ: seq %d, par %d", len(sv), len(pv))
	}
	for i := range sv {
		a, b := sv[i], pv[i]
		if a.Rule != b.Rule || a.Marker.Box != b.Marker.Box || a.Marker.Dist != b.Marker.Dist {
			t.Fatalf("violation %d differs:\nseq %s %v d=%d\npar %s %v d=%d",
				i, a.Rule, a.Marker.Box, a.Marker.Dist, b.Rule, b.Marker.Box, b.Marker.Dist)
		}
	}
	if exp.Total == 0 {
		t.Fatal("vacuous comparison")
	}
	if par.Device == nil || par.Modeled <= 0 {
		t.Error("parallel report missing device timeline")
	}
	if par.Stats.Rows == 0 || par.Stats.KernelLaunches == 0 {
		t.Errorf("parallel stats empty: %+v", par.Stats)
	}
}

// TestPruningAblationSameViolations holds the pruned sequential engine to
// KLayout flat, the unpruned baseline, rule by rule, and requires that the
// pruning reused something.
func TestPruningAblationSameViolations(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.7)
	deck := synth.Deck()
	on := runEngine(t, lo, Options{Mode: Sequential}, deck)
	var off []rules.Violation
	for _, r := range deck {
		res, err := klayout.CheckContext(context.Background(), lo, r, klayout.Options{Mode: klayout.Flat})
		if err != nil {
			t.Fatal(err)
		}
		off = append(off, res.Violations...)
	}
	ov := DedupViolations(on.Violations)
	fv := DedupViolations(off)
	if len(ov) != len(fv) {
		t.Fatalf("pruning changed results: %d vs %d (KLayout flat)", len(ov), len(fv))
	}
	for i := range ov {
		if ov[i].Rule != fv[i].Rule || ov[i].Marker.Box != fv[i].Marker.Box {
			t.Fatalf("violation %d differs from KLayout flat", i)
		}
	}
	if on.Stats.ChecksReused == 0 {
		t.Error("hierarchy pruning reused nothing")
	}
}

func TestExecutorThresholdSameViolations(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.7)
	deck := rules.Deck{synth.Deck()[8]} // M2.S.1
	brute := runEngine(t, lo, Options{Mode: Parallel, BruteEdgeThreshold: 1 << 30}, deck)
	swp := runEngine(t, lo, Options{Mode: Parallel, BruteEdgeThreshold: 1}, deck)
	bv := DedupViolations(append([]rules.Violation(nil), brute.Violations...))
	sv := DedupViolations(append([]rules.Violation(nil), swp.Violations...))
	if len(bv) != len(sv) {
		t.Fatalf("executor choice changed results: brute %d vs sweep %d", len(bv), len(sv))
	}
	for i := range bv {
		if bv[i].Marker.Box != sv[i].Marker.Box {
			t.Fatalf("marker %d differs between executors", i)
		}
	}
}

func TestMagnifiedIntraChecks(t *testing.T) {
	// A cell with a 16-wide bar instantiated at mag 2: the bar appears 32
	// wide, legal under min 18; at mag 1 it violates. Width thresholds must
	// rescale per instance group.
	lib := &gdsii.Library{
		Name: "mag", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{
			{
				Name: "BAR",
				Boundaries: []gdsii.Boundary{{
					Layer: int16(layout.LayerM1),
					XY: []geom.Point{
						geom.Pt(0, 0), geom.Pt(0, 100), geom.Pt(16, 100), geom.Pt(16, 0),
					},
				}},
			},
			{
				Name: "TOP",
				SRefs: []gdsii.SRef{
					{Name: "BAR", Pos: geom.Pt(0, 0)},
					{Name: "BAR", Pos: geom.Pt(1000, 0), Trans: gdsii.Trans{Mag: 2}},
				},
			},
		},
	}
	lo, err := layout.FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	// The bar's area, 1600, fails 2000 at mag 1 and passes (6400) at mag 2.
	width := rules.Layer(layout.LayerM1).Width().AtLeast(18).Named("W")
	area := rules.Layer(layout.LayerM1).Area().AtLeast(2000).Named("A")
	wantOne := func(who string, vs []rules.Violation) {
		t.Helper()
		if len(vs) != 1 {
			t.Fatalf("%s: violations = %v, want 1 (only the mag-1 instance)", who, vs)
		}
		if vs[0].Marker.Box != geom.R(0, 0, 16, 100) {
			t.Errorf("%s: violation at %v", who, vs[0].Marker.Box)
		}
	}
	ctx := context.Background()
	for _, r := range []rules.Rule{width, area} {
		for _, mode := range []Mode{Sequential, Parallel} {
			rep := runEngine(t, lo, Options{Mode: mode}, rules.Deck{r})
			wantOne(fmt.Sprintf("%s %v", r, mode), rep.Violations)
			if rep.Stats.DefsChecked != 2 || rep.Stats.ChecksReused != 0 {
				t.Errorf("%s %v: %d definition checks, %d reused; want one per magnification, none reused",
					r, mode, rep.Stats.DefsChecked, rep.Stats.ChecksReused)
			}
		}
		// The baselines scale the same way: flat and tiling see the
		// magnified geometry, deep replays its definition checks per
		// magnification.
		for _, mode := range []klayout.Mode{klayout.Flat, klayout.Deep, klayout.Tiling} {
			res, err := klayout.CheckContext(ctx, lo, r, klayout.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			wantOne(fmt.Sprintf("%s KLayout %v", r, mode), res.Violations)
		}
	}
	res, err := xcheck.CheckContext(ctx, lo, width, xcheck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOne("W X-Check", res.Violations)
}

// TestMagnifiedInterRuleRejected: a magnified reference fails a check with
// an inter-polygon rule only when its subtree holds geometry on one of the
// rule's input layers. A mag-2 reference to an M3-only cell under an M1
// spacing deck checks cleanly in both modes; a mag-2 reference holding M1
// fails, naming the reference.
func TestMagnifiedInterRuleRejected(t *testing.T) {
	bar := func(name string, l layout.Layer) *gdsii.Structure {
		return &gdsii.Structure{Name: name, Boundaries: []gdsii.Boundary{{
			Layer: int16(l),
			XY:    []geom.Point{geom.Pt(0, 0), geom.Pt(0, 100), geom.Pt(20, 100), geom.Pt(20, 0)},
		}}}
	}
	layoutWith := func(magnified string) *layout.Layout {
		return buildLayout(t, &gdsii.Library{Name: "mag", Structures: []*gdsii.Structure{
			bar("BAR1", layout.LayerM1), bar("BAR3", layout.LayerM3),
			{Name: "TOP", SRefs: []gdsii.SRef{
				{Name: "BAR1", Pos: geom.Pt(0, 0)},
				{Name: "BAR1", Pos: geom.Pt(30, 0)}, // 10 apart: one spacing violation
				{Name: magnified, Pos: geom.Pt(500, 0), Trans: gdsii.Trans{Mag: 2}},
			}},
		}})
	}
	deck := rules.Deck{rules.Layer(layout.LayerM1).Spacing().AtLeast(18).Named("S")}
	for _, mode := range []Mode{Sequential, Parallel} {
		rep := runEngine(t, layoutWith("BAR3"), Options{Mode: mode}, deck)
		if len(rep.Violations) != 1 {
			t.Errorf("%v: mag-2 M3-only reference: %d violations, want 1", mode, len(rep.Violations))
		}
		e := New(Options{Mode: mode})
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		_, err := e.CheckContext(context.Background(), layoutWith("BAR1"))
		if err == nil || !strings.Contains(err.Error(), "TOP -> BAR1") {
			t.Errorf("%v: mag-2 M1 reference under an M1 spacing rule: err = %v, want one naming TOP -> BAR1", mode, err)
		}
	}
}

func TestInvalidRuleRejected(t *testing.T) {
	e := New(Options{})
	if err := e.AddRules(rules.Rule{Kind: rules.Width, Min: 0}); err == nil {
		t.Error("invalid rule accepted by AddRules")
	}
}

func TestAnonymousRuleGetsID(t *testing.T) {
	e := New(Options{})
	if err := e.AddRules(rules.Layer(layout.LayerM1).Width().AtLeast(18)); err != nil {
		t.Fatal(err)
	}
	if e.Deck()[0].ID == "" {
		t.Error("anonymous rule has empty ID")
	}
}

func TestReportDeterminism(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.6)
	a := runEngine(t, lo, Options{Mode: Sequential}, synth.Deck())
	b := runEngine(t, lo, Options{Mode: Sequential}, synth.Deck())
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("runs differ: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i].Marker.Box != b.Violations[i].Marker.Box {
			t.Fatal("violation order not deterministic")
		}
	}
}

func TestProfilerPhasesPresent(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.6)
	deck := rules.Deck{synth.Deck()[7]} // M1.S.1
	rep := runEngine(t, lo, Options{Mode: Sequential}, deck)
	if rep.Profile.Get("spacing:sweepline") == 0 && rep.Profile.Get("spacing:cell-checks") == 0 {
		t.Error("spacing phases missing from profile")
	}
}

func TestDedupViolations(t *testing.T) {
	mk := func(rule string, x int64) rules.Violation {
		return rules.Violation{Rule: rule, Marker: checks.Marker{Box: geom.R(x, 0, x+1, 1)}}
	}
	// The duplicate A@1 collapses; A@2 and B@1 stay distinct.
	vs := []rules.Violation{mk("A", 1), mk("A", 1), mk("A", 2), mk("B", 1)}
	out := DedupViolations(vs)
	if len(out) != 3 {
		t.Errorf("dedup = %d, want 3", len(out))
	}
}

// TestDedupKeepsSmallestCell: the dedup predicate is rule, box, distance and
// corner — not full identity — so violations differing only in Cell collapse,
// and the survivor is the first in rules.Less order: the smaller Cell.
func TestDedupKeepsSmallestCell(t *testing.T) {
	v := rules.Violation{Rule: "A", Marker: checks.Marker{Box: geom.R(0, 0, 1, 1), Dist: 3}}
	a, b := v, v
	a.Cell, b.Cell = "inv_x1", "and2_x1"
	for _, in := range [][]rules.Violation{{a, b}, {b, a}} {
		if out := DedupViolations(in); len(out) != 1 || out[0].Cell != "and2_x1" {
			t.Fatalf("dedup of %q and %q kept %+v", in[0].Cell, in[1].Cell, out)
		}
	}
}

// TestEmptyDeck: a deck with no rules yields an empty report in both modes,
// batch and session.
func TestEmptyDeck(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.3)
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		batch, err := New(Options{Mode: mode}).CheckContext(ctx, lo)
		if err != nil {
			t.Fatalf("%v batch: %v", mode, err)
		}
		ses := NewSession(lo, Options{Mode: mode})
		warm, err := ses.Check(ctx, nil)
		ses.Close(ctx)
		if err != nil {
			t.Fatalf("%v session: %v", mode, err)
		}
		for _, rep := range []*Report{batch, warm} {
			if len(rep.Violations) != 0 || rep.Degraded || rep.Stats.KernelLaunches != 0 {
				t.Errorf("%v: empty deck reported %d violations, degraded %v, %d launches",
					mode, len(rep.Violations), rep.Degraded, rep.Stats.KernelLaunches)
			}
		}
	}
}

// TestChecksReusedPerRule: every executor that replays a definition's result
// books its own rule's reuse, so the pruning counters agree between the
// modes on the rules both prune by definition, and Stats depend neither on
// deck order nor on batch vs session.
func TestChecksReusedPerRule(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.3)
	ctx := context.Background()
	pick := func(ids ...string) rules.Deck {
		var d rules.Deck
		for _, id := range ids {
			r, err := synth.RuleByID(id)
			if err != nil {
				t.Fatal(err)
			}
			d = append(d, r)
		}
		return d
	}
	for _, id := range []string{"M1.W.1", "V1.M1.EN.1"} {
		seq := runEngine(t, lo, Options{Mode: Sequential}, pick(id)).Stats
		par := runEngine(t, lo, Options{Mode: Parallel}, pick(id)).Stats
		if seq.DefsChecked != par.DefsChecked || seq.InstancesEmitted != par.InstancesEmitted ||
			seq.ChecksReused != par.ChecksReused {
			t.Errorf("%s: seq defs/instances/reused %d/%d/%d, par %d/%d/%d", id,
				seq.DefsChecked, seq.InstancesEmitted, seq.ChecksReused,
				par.DefsChecked, par.InstancesEmitted, par.ChecksReused)
		}
		if seq.ChecksReused == 0 {
			t.Errorf("%s: nothing reused; the comparison is vacuous", id)
		}
	}
	deck := pick("V1.M1.EN.1", "M1.S.1", "M1.W.1")
	rev := pick("M1.W.1", "M1.S.1", "V1.M1.EN.1")
	for _, mode := range []Mode{Sequential, Parallel} {
		want := runEngine(t, lo, Options{Mode: mode}, deck).Stats
		if got := runEngine(t, lo, Options{Mode: mode}, rev).Stats; got != want {
			t.Errorf("%v: reversed deck Stats %+v, want %+v", mode, got, want)
		}
		ses := NewSession(lo, Options{Mode: mode})
		rep, err := ses.Check(ctx, deck)
		ses.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Errorf("%v: session Stats %+v, want batch %+v", mode, rep.Stats, want)
		}
	}
}
