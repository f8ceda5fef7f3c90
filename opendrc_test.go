package opendrc_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"opendrc"
	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
	"opendrc/internal/synth"
)

// facadeLibrary builds a small violating layout through the public API path.
func facadeLibrary() *gdsii.Library {
	return &gdsii.Library{
		Name: "facade", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{
			{
				Name: "CELL",
				Boundaries: []gdsii.Boundary{
					{Layer: 19, XY: []geom.Point{
						geom.Pt(0, 0), geom.Pt(0, 100), geom.Pt(16, 100), geom.Pt(16, 0),
					}},
				},
			},
			{
				Name: "TOP",
				SRefs: []gdsii.SRef{
					{Name: "CELL", Pos: geom.Pt(0, 0)},
					{Name: "CELL", Pos: geom.Pt(500, 0)},
				},
			},
		},
	}
}

func TestFacadeListing1Flow(t *testing.T) {
	var buf bytes.Buffer
	if err := gdsii.NewWriter(&buf).WriteLibrary(facadeLibrary()); err != nil {
		t.Fatal(err)
	}
	db, err := opendrc.ReadGDSFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := opendrc.NewEngine()
	err = e.AddRules(
		opendrc.Layer(19).Polygons().AreRectilinear(),
		opendrc.Layer(19).Width().GreaterThan(18),
		opendrc.Layer(20).Polygons().Ensure("named", func(o opendrc.Obj) bool {
			return o.Name != ""
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Check(db)
	if err != nil {
		t.Fatal(err)
	}
	// Width 16 < 19 on both instances.
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %d, want 2", len(rep.Violations))
	}
	if got := len(opendrc.Dedup(rep.Violations)); got != 2 {
		t.Errorf("dedup = %d (markers at distinct positions must survive)", got)
	}
}

func TestFacadeReadGDSFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.gds")
	if err := gdsii.WriteFile(path, facadeLibrary()); err != nil {
		t.Fatal(err)
	}
	db, err := opendrc.ReadGDS(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Top.Name != "TOP" {
		t.Errorf("top = %q", db.Top.Name)
	}
	if _, err := opendrc.ReadGDS(filepath.Join(t.TempDir(), "missing.gds")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFacadeOptions(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	variants := []struct {
		name string
		opts []opendrc.Option
	}{
		{"sequential", nil},
		{"parallel", []opendrc.Option{opendrc.WithMode(opendrc.Parallel)}},
	}
	var want int = -1
	for _, v := range variants {
		e := opendrc.NewEngine(v.opts...)
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Check(lo)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got := len(opendrc.Dedup(rep.Violations))
		if want < 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: %d violations, want %d", v.name, got, want)
		}
	}
}

func TestFacadeInvalidRule(t *testing.T) {
	e := opendrc.NewEngine()
	if err := e.AddRules(opendrc.Layer(19).Width().AtLeast(0)); err == nil {
		t.Error("invalid rule accepted through facade")
	}
	if n := len(e.Deck()); n != 0 {
		t.Errorf("deck grew on failed add: %d", n)
	}
}
