package core

import (
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// prlLibrary: two pairs of parallel wires at gap 20: one pair runs long
// (projection 300), one short (projection 50).
func prlLibrary() *gdsii.Library {
	return &gdsii.Library{
		Name: "prl", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{{
			Name: "TOP",
			Boundaries: []gdsii.Boundary{
				{Layer: int16(layout.LayerM2), XY: ring(0, 0, 300, 30)},
				{Layer: int16(layout.LayerM2), XY: ring(0, 50, 300, 80)}, // long pair, gap 20
				{Layer: int16(layout.LayerM2), XY: ring(0, 200, 50, 230)},
				{Layer: int16(layout.LayerM2), XY: ring(0, 250, 50, 280)}, // short pair, gap 20
			},
		}},
	}
}

func TestPRLSpacing(t *testing.T) {
	lo := buildLayout(t, prlLibrary())
	base := rules.Layer(layout.LayerM2).Spacing().AtLeast(18).Named("M2.S")
	// Without the PRL condition: both pairs pass (gap 20 >= 18).
	rep := runEngine(t, lo, Options{Mode: Sequential}, rules.Deck{base})
	if n := len(rep.Violations); n != 0 {
		t.Fatalf("base spacing: %d violations, want 0", n)
	}
	// With PRL: projection >= 100 requires 24 — only the long pair fails.
	prl := base.WhenProjectionAtLeast(100, 24).Named("M2.S.PRL")
	rep = runEngine(t, lo, Options{Mode: Sequential}, rules.Deck{prl})
	if n := len(rep.Violations); n != 1 {
		for _, v := range rep.Violations {
			t.Logf("violation %v d=%d", v.Marker.Box, v.Marker.Dist)
		}
		t.Fatalf("PRL spacing: %d violations, want 1 (long pair only)", n)
	}
	if rep.Violations[0].Marker.Dist != 20 {
		t.Errorf("violation distance = %d, want 20", rep.Violations[0].Marker.Dist)
	}
	// Parallel mode agrees (both executors).
	for _, threshold := range []int{1, 1 << 30} {
		par := runEngine(t, lo, Options{Mode: Parallel, BruteEdgeThreshold: threshold}, rules.Deck{prl})
		if len(par.Violations) != 1 {
			t.Fatalf("parallel (threshold %d): %d violations, want 1", threshold, len(par.Violations))
		}
	}
}

func TestPRLValidation(t *testing.T) {
	bad := rules.Layer(layout.LayerM2).Spacing().AtLeast(18).WhenProjectionAtLeast(100, 10)
	if err := bad.Validate(); err == nil {
		t.Error("PRLMin <= Min accepted")
	}
	badKind := rules.Layer(layout.LayerM2).Width().AtLeast(18)
	badKind.PRLLength = 100
	badKind.PRLMin = 24
	if err := badKind.Validate(); err == nil {
		t.Error("PRL on width rule accepted")
	}
	good := rules.Layer(layout.LayerM2).Spacing().AtLeast(18).WhenProjectionAtLeast(100, 24)
	if err := good.Validate(); err != nil {
		t.Errorf("valid PRL rule rejected: %v", err)
	}
	if good.Reach() != 24 {
		t.Errorf("PRL reach = %d, want 24", good.Reach())
	}
}
