package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/klayout"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// randomLibrary generates a small hierarchical layout with random cell
// geometry and placements in all eight orientations, SREFs and AREFs —
// the adversarial input for cross-engine agreement.
func randomLibrary(rng *rand.Rand) *gdsii.Library {
	lib := &gdsii.Library{Name: "rand", UserUnit: 1e-3, MeterUnit: 1e-9}
	nCells := 2 + rng.Intn(3)
	names := make([]string, nCells)
	for ci := 0; ci < nCells; ci++ {
		names[ci] = fmt.Sprintf("C%d", ci)
		st := &gdsii.Structure{Name: names[ci]}
		for p := 0; p < 1+rng.Intn(4); p++ {
			x := int64(rng.Intn(120))
			y := int64(rng.Intn(120))
			w := int64(8 + rng.Intn(40))
			h := int64(8 + rng.Intn(40))
			layerPick := []layout.Layer{layout.LayerM1, layout.LayerM1, layout.LayerV1}[rng.Intn(3)]
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{
				Layer: int16(layerPick),
				XY: []geom.Point{
					geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+w, y+h), geom.Pt(x+w, y),
				},
			})
		}
		lib.Structures = append(lib.Structures, st)
	}
	top := &gdsii.Structure{Name: "TOP"}
	angles := []float64{0, 90, 180, 270}
	for i := 0; i < 4+rng.Intn(8); i++ {
		tr := gdsii.Trans{
			Reflect:  rng.Intn(2) == 0,
			AngleDeg: angles[rng.Intn(4)],
		}
		pos := geom.Pt(int64(rng.Intn(900)), int64(rng.Intn(900)))
		name := names[rng.Intn(nCells)]
		if rng.Intn(4) == 0 {
			cols := int16(1 + rng.Intn(3))
			rows := int16(1 + rng.Intn(3))
			top.ARefs = append(top.ARefs, gdsii.ARef{
				Name: name, Trans: tr, Cols: cols, Rows: rows,
				Origin: pos,
				ColEnd: pos.Add(geom.Pt(int64(cols)*int64(150+rng.Intn(100)), 0)),
				RowEnd: pos.Add(geom.Pt(0, int64(rows)*int64(150+rng.Intn(100)))),
			})
		} else {
			top.SRefs = append(top.SRefs, gdsii.SRef{Name: name, Trans: tr, Pos: pos})
		}
	}
	// Loose top-level geometry too.
	for i := 0; i < rng.Intn(5); i++ {
		x := int64(rng.Intn(800))
		y := int64(rng.Intn(800))
		w := int64(20 + rng.Intn(200))
		h := int64(10 + rng.Intn(30))
		top.Boundaries = append(top.Boundaries, gdsii.Boundary{
			Layer: int16(layout.LayerM1),
			XY: []geom.Point{
				geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+w, y+h), geom.Pt(x+w, y),
			},
		})
	}
	lib.Structures = append(lib.Structures, top)
	return lib
}

func violationKeys(vs []rules.Violation) map[string]bool {
	out := make(map[string]bool)
	for _, v := range DedupViolations(append([]rules.Violation(nil), vs...)) {
		out[fmt.Sprintf("%s|%v|%d|%v", v.Rule, v.Marker.Box, v.Marker.Dist, v.Marker.Corner)] = true
	}
	return out
}

// TestRandomLayoutsAllConfigurationsAgree runs every engine configuration
// over randomized hierarchical layouts and demands identical deduplicated
// violation sets: sequential, parallel with each executor, and KLayout flat
// and deep rule by rule — unpruned references that share no executor with
// the engine.
func TestRandomLayoutsAllConfigurationsAgree(t *testing.T) {
	deck := rules.Deck{
		rules.Layer(layout.LayerM1).Width().AtLeast(12).Named("W"),
		rules.Layer(layout.LayerM1).Area().AtLeast(150).Named("A"),
		rules.Layer(layout.LayerM1).Spacing().AtLeast(14).Named("S"),
		rules.Layer(layout.LayerM1).Spacing().AtLeast(10).
			WhenProjectionAtLeast(25, 16).Named("SPRL"),
		rules.Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(4).Named("EN"),
	}
	engine := func(opts Options) func(*layout.Layout) []rules.Violation {
		return func(lo *layout.Layout) []rules.Violation { return runEngine(t, lo, opts, deck).Violations }
	}
	kl := func(mode klayout.Mode) func(*layout.Layout) []rules.Violation {
		return func(lo *layout.Layout) []rules.Violation {
			var vs []rules.Violation
			for _, r := range deck {
				res, err := klayout.CheckContext(context.Background(), lo, r, klayout.Options{Mode: mode})
				if err != nil {
					t.Fatalf("KLayout %v %s: %v", mode, r.ID, err)
				}
				vs = append(vs, res.Violations...)
			}
			return vs
		}
	}
	configs := []struct {
		name string
		run  func(*layout.Layout) []rules.Violation
	}{
		{"seq", engine(Options{Mode: Sequential})},
		{"par-brute", engine(Options{Mode: Parallel, BruteEdgeThreshold: 1 << 30})},
		{"par-sweep", engine(Options{Mode: Parallel, BruteEdgeThreshold: 1})},
		{"kl-flat", kl(klayout.Flat)},
		{"kl-deep", kl(klayout.Deep)},
	}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		lib := randomLibrary(rng)
		lo, err := layout.FromLibrary(lib)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var ref map[string]bool
		var refName string
		for _, cfg := range configs {
			keys := violationKeys(cfg.run(lo))
			if ref == nil {
				ref, refName = keys, cfg.name
				continue
			}
			if len(keys) != len(ref) {
				t.Fatalf("trial %d: %s found %d violations, %s found %d",
					trial, cfg.name, len(keys), refName, len(ref))
			}
			for k := range keys {
				if !ref[k] {
					t.Fatalf("trial %d: %s-only violation %s", trial, cfg.name, k)
				}
			}
		}
		if len(ref) == 0 && trial == 0 {
			t.Log("note: trial 0 produced no violations (acceptable, randomized)")
		}
	}
}
