package rules

import (
	"strings"
	"testing"

	"opendrc/internal/geom"
	"opendrc/internal/layout"
)

func TestBuilderChains(t *testing.T) {
	r := Layer(layout.LayerM1).Width().AtLeast(18).Named("M1.W.1")
	if r.Kind != Width || r.Layer != layout.LayerM1 || r.Min != 18 || r.ID != "M1.W.1" {
		t.Errorf("width rule = %+v", r)
	}
	r = Layer(layout.LayerM1).Width().GreaterThan(18)
	if r.Min != 19 {
		t.Errorf("GreaterThan(18) min = %d", r.Min)
	}
	r = Layer(layout.LayerM2).Spacing().AtLeast(20)
	if r.Kind != Spacing || r.Min != 20 {
		t.Errorf("spacing rule = %+v", r)
	}
	r = Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(5)
	if r.Kind != Enclosure || r.Layer != layout.LayerV1 || r.Outer != layout.LayerM1 {
		t.Errorf("enclosure rule = %+v", r)
	}
	r = Layer(layout.LayerM3).Area().AtLeast(1000)
	if r.Kind != Area || r.Min != 1000 {
		t.Errorf("area rule = %+v", r)
	}
	r = Layer(layout.LayerM1).Polygons().AreRectilinear()
	if r.Kind != Rectilinear {
		t.Errorf("rectilinear rule = %+v", r)
	}
	r = Layer(20).Polygons().Ensure("non-empty name", func(o Obj) bool { return o.Name != "" })
	if r.Kind != Custom || r.Pred == nil || r.Desc != "non-empty name" {
		t.Errorf("custom rule = %+v", r)
	}
}

func TestValidation(t *testing.T) {
	good := Deck{
		Layer(layout.LayerM1).Width().AtLeast(18),
		Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(5),
		Layer(layout.LayerM1).Polygons().AreRectilinear(),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid deck rejected: %v", err)
	}
	bad := []Rule{
		Layer(layout.LayerM1).Width().AtLeast(0),
		Layer(layout.LayerM1).Spacing().AtLeast(-5),
		Layer(layout.LayerM1).EnclosedBy(layout.LayerM1).AtLeast(5),
		{Kind: Custom, Layer: 1}, // predicate missing
		{Kind: Kind(99)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d accepted: %+v", i, r)
		}
	}
	deck := Deck{bad[0]}
	if err := deck.Validate(); err == nil || !strings.Contains(err.Error(), "rule 0") {
		t.Errorf("deck validation error = %v", err)
	}
}

func TestReachAndMaxReach(t *testing.T) {
	d := Deck{
		Layer(layout.LayerM1).Width().AtLeast(18),
		Layer(layout.LayerM1).Spacing().AtLeast(25),
		Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(7),
		Layer(layout.LayerM1).Area().AtLeast(500),
	}
	if d[0].Reach() != 0 {
		t.Error("width must not have reach (intra-polygon)")
	}
	if d[1].Reach() != 25 || d[2].Reach() != 7 {
		t.Error("spacing/enclosure reach wrong")
	}
	if d.MaxReach() != 25 {
		t.Errorf("max reach = %d", d.MaxReach())
	}
}

func TestKindIntra(t *testing.T) {
	intra := []Kind{Width, Area, Rectilinear, Custom}
	for _, k := range intra {
		if !k.Intra() {
			t.Errorf("%v should be intra", k)
		}
	}
	for _, k := range []Kind{Spacing, Enclosure} {
		if k.Intra() {
			t.Errorf("%v should be inter", k)
		}
	}
}

func TestRuleStrings(t *testing.T) {
	r := Layer(layout.LayerM1).Width().AtLeast(18)
	if s := r.String(); !strings.Contains(s, "M1") || !strings.Contains(s, "width") {
		t.Errorf("string = %q", s)
	}
	named := r.Named("M1.W.1")
	if named.String() != "M1.W.1" {
		t.Errorf("named string = %q", named.String())
	}
	en := Layer(layout.LayerV1).EnclosedBy(layout.LayerM1).AtLeast(5)
	if s := en.String(); !strings.Contains(s, "EN") {
		t.Errorf("enclosure string = %q", s)
	}
}

func TestCustomPredicate(t *testing.T) {
	r := Layer(20).Polygons().Ensure("named", func(o Obj) bool { return o.Name != "" })
	ok := r.Pred(Obj{Shape: geom.RectPolygon(geom.R(0, 0, 1, 1)), Name: "net1"})
	if !ok {
		t.Error("predicate rejected named polygon")
	}
	if r.Pred(Obj{Name: ""}) {
		t.Error("predicate accepted unnamed polygon")
	}
}
