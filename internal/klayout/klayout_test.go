package klayout

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

func load(t *testing.T, name string, scale float64) *layout.Layout {
	t.Helper()
	lo, _, err := synth.Load(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// dedupKeys canonicalizes violations for set comparison.
func dedupKeys(vs []rules.Violation) map[string]bool {
	out := make(map[string]bool)
	for _, v := range vs {
		out[fmt.Sprintf("%s|%v|%d", v.Rule, v.Marker.Box, v.Marker.Dist)] = true
	}
	return out
}

func eqSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestModesAgreeOnAllRules(t *testing.T) {
	lo := load(t, "uart", 0.8)
	for _, r := range synth.Deck() {
		flat, err := CheckContext(context.Background(), lo, r, Options{Mode: Flat})
		if err != nil {
			t.Fatalf("%s flat: %v", r.ID, err)
		}
		deep, err := CheckContext(context.Background(), lo, r, Options{Mode: Deep})
		if err != nil {
			t.Fatalf("%s deep: %v", r.ID, err)
		}
		tile, err := CheckContext(context.Background(), lo, r, Options{Mode: Tiling, TileSize: 3000})
		if err != nil {
			t.Fatalf("%s tiling: %v", r.ID, err)
		}
		fk, dk, tk := dedupKeys(flat.Violations), dedupKeys(deep.Violations), dedupKeys(tile.Violations)
		if !eqSets(fk, dk) {
			t.Errorf("%s: flat (%d) and deep (%d) disagree", r.ID, len(fk), len(dk))
		}
		if !eqSets(fk, tk) {
			t.Errorf("%s: flat (%d) and tiling (%d) disagree", r.ID, len(fk), len(tk))
		}
	}
}

func TestFlatFindsInjected(t *testing.T) {
	lo, exp, err := synth.Load("uart", 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCount := func(ruleID string, want int) {
		t.Helper()
		r, err := synth.RuleByID(ruleID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckContext(context.Background(), lo, r, Options{Mode: Flat})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(dedupKeys(res.Violations)); got != want {
			t.Errorf("%s: flat found %d, injected %d", ruleID, got, want)
		}
	}
	checkCount("M1.W.1", exp.WidthM1)
	checkCount("M1.A.1", exp.AreaM1)
	checkCount("M1.S.1", exp.NotchM1)
	checkCount("M2.S.1", exp.SpaceM2)
	checkCount("V1.M1.EN.1", exp.EnclV1)
	checkCount("V2.M2.EN.1", exp.EnclV2M2)
	checkCount("M2.NAME.1", exp.UnnamedM2)
}

func TestTilingReportsTilesAndMakespan(t *testing.T) {
	lo := load(t, "uart", 0.8)
	r, _ := synth.RuleByID("M1.S.1")
	res, err := CheckContext(context.Background(), lo, r, Options{Mode: Tiling, TileSize: 2000, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles < 2 {
		t.Errorf("tiles = %d; tile size too large for the test to mean anything", res.Tiles)
	}
	if res.Modeled <= 0 || res.Modeled > res.Wall {
		t.Errorf("modeled makespan %v vs wall %v", res.Modeled, res.Wall)
	}
}

func TestTilingOwnershipNoDuplicates(t *testing.T) {
	lo := load(t, "uart", 1)
	r, _ := synth.RuleByID("M2.S.1")
	// Tiny tiles maximize halo overlap; dedup must still hold.
	small, err := CheckContext(context.Background(), lo, r, Options{Mode: Tiling, TileSize: 800})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := CheckContext(context.Background(), lo, r, Options{Mode: Flat})
	if err != nil {
		t.Fatal(err)
	}
	if len(dedupKeys(small.Violations)) != len(dedupKeys(flat.Violations)) {
		t.Errorf("tiny tiles changed violation set: %d vs %d",
			len(dedupKeys(small.Violations)), len(dedupKeys(flat.Violations)))
	}
	// Exact duplicates inside the raw list indicate broken ownership.
	seen := map[string]int{}
	for _, v := range small.Violations {
		seen[fmt.Sprintf("%v|%d", v.Marker.Box, v.Marker.Dist)]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("violation %s reported %d times", k, n)
		}
	}
}

func TestMakespan(t *testing.T) {
	times := []time.Duration{8, 4, 4, 3, 3, 2}
	// LPT: worker A gets 8+3+2, worker B gets 4+4+3 -> makespan 13 (the
	// optimum is 12; LPT is a 4/3-approximation).
	if got := makespan(times, 2); got != 13 {
		t.Errorf("makespan(2) = %v", got)
	}
	if got := makespan(times, 1); got != 24 {
		t.Errorf("makespan(1) = %v", got)
	}
	if got := makespan(times, 100); got != 8 {
		t.Errorf("makespan(inf) = %v", got)
	}
	if got := makespan(nil, 4); got != 0 {
		t.Errorf("makespan(empty) = %v", got)
	}
}

func TestInvalidRule(t *testing.T) {
	lo := load(t, "uart", 0.3)
	if _, err := CheckContext(context.Background(), lo, rules.Rule{Kind: rules.Width}, Options{}); err == nil {
		t.Error("invalid rule accepted")
	}
	if _, err := CheckContext(context.Background(), lo, synth.Deck()[0], Options{Mode: Mode(9)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// randomLib builds a randomized hierarchical library (orientations, arrays,
// loose shapes) for cross-tool agreement checks.
func randomLib(seed int64) *gdsii.Library {
	rng := rand.New(rand.NewSource(seed))
	lib := &gdsii.Library{Name: "rand", UserUnit: 1e-3, MeterUnit: 1e-9}
	names := []string{"A", "B"}
	for _, name := range names {
		st := &gdsii.Structure{Name: name}
		for p := 0; p < 1+rng.Intn(3); p++ {
			x, y := int64(rng.Intn(100)), int64(rng.Intn(100))
			w, h := int64(8+rng.Intn(40)), int64(8+rng.Intn(40))
			l := layout.LayerM1
			if rng.Intn(3) == 0 {
				l = layout.LayerV1
			}
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{
				Layer: int16(l),
				XY: []geom.Point{
					geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+w, y+h), geom.Pt(x+w, y),
				},
			})
		}
		lib.Structures = append(lib.Structures, st)
	}
	top := &gdsii.Structure{Name: "TOP"}
	angles := []float64{0, 90, 180, 270}
	for i := 0; i < 5+rng.Intn(6); i++ {
		top.SRefs = append(top.SRefs, gdsii.SRef{
			Name: names[rng.Intn(2)],
			Pos:  geom.Pt(int64(rng.Intn(600)), int64(rng.Intn(600))),
			Trans: gdsii.Trans{
				Reflect:  rng.Intn(2) == 0,
				AngleDeg: angles[rng.Intn(4)],
			},
		})
	}
	lib.Structures = append(lib.Structures, top)
	return lib
}

// TestKLayoutAgreesWithOpenDRCOnRandomLayouts pits every KLayout mode
// against OpenDRC's sequential engine on randomized hierarchies.
func TestKLayoutAgreesWithOpenDRCOnRandomLayouts(t *testing.T) {
	deck := rules.Deck{
		rules.Layer(layout.LayerM1).Width().AtLeast(12).Named("W"),
		rules.Layer(layout.LayerM1).Spacing().AtLeast(14).Named("S"),
		rules.Layer(layout.LayerM1).Area().AtLeast(150).Named("A"),
		rules.Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(4).Named("EN"),
	}
	for trial := int64(0); trial < 10; trial++ {
		lo, err := layout.FromLibrary(randomLib(trial*31 + 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range deck {
			eng := core.New(core.Options{Mode: core.Sequential})
			if err := eng.AddRules(r); err != nil {
				t.Fatal(err)
			}
			rep, err := eng.CheckContext(context.Background(), lo)
			if err != nil {
				t.Fatal(err)
			}
			want := dedupKeys(rep.Violations)
			for _, mode := range []Mode{Flat, Deep, Tiling} {
				res, err := CheckContext(context.Background(), lo, r, Options{Mode: mode, TileSize: 150})
				if err != nil {
					t.Fatalf("trial %d %s %v: %v", trial, r.ID, mode, err)
				}
				got := dedupKeys(res.Violations)
				if !eqSets(got, want) {
					t.Fatalf("trial %d rule %s: klayout-%v %d violations vs opendrc %d",
						trial, r.ID, mode, len(got), len(want))
				}
			}
		}
	}
}

// TestDeepAllocsPerRun bounds deep mode's allocations per rule. Its variant
// builds allocate by design (the per-instance transform is the cost the
// baseline models), but its walks over a cell's own polygons read the
// layout's per-layer index in place: a copy of that index per cell and per
// instance would put ethmac@0.3 at 11 650 (M1.S.1) and 5 112 (M1.W.1).
func TestDeepAllocsPerRun(t *testing.T) {
	lo := load(t, "ethmac", 0.3)
	for _, tc := range []struct {
		rule string
		max  float64
	}{{"M1.S.1", 9800}, {"M1.W.1", 4550}} {
		r, err := synth.RuleByID(tc.rule)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := CheckContext(context.Background(), lo, r, Options{Mode: Deep}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s deep: %.0f allocs/run, want <= %.0f", tc.rule, allocs, tc.max)
		}
	}
}
