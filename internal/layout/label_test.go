package layout

import (
	"math/rand"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// TestLabelInMatchesScan holds the indexed lookup to a scan of the cell's
// labels in order: the first label on the polygon's layer lying on or
// inside it wins. Labels crowd a small grid, so ties in x, labels on the
// boundary, several labels per polygon and labels on other layers are all
// common.
func TestLabelInMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	layers := []Layer{LayerM1, LayerM2, LayerM3}
	for trial := 0; trial < 50; trial++ {
		st := &gdsii.Structure{Name: "TOP"}
		for i := 0; i < 1+rng.Intn(60); i++ {
			st.Texts = append(st.Texts, gdsii.Text{
				Layer: int16(layers[rng.Intn(len(layers))]),
				Pos:   geom.Pt(int64(rng.Intn(40)), int64(rng.Intn(40))),
				Str:   string(rune('a' + i%26)),
			})
		}
		for i := 0; i < 20; i++ {
			x, y := int64(rng.Intn(40)), int64(rng.Intn(40))
			w, h := int64(1+rng.Intn(20)), int64(1+rng.Intn(20))
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{
				Layer: int16(layers[rng.Intn(len(layers))]),
				XY:    []geom.Point{geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+w, y+h), geom.Pt(x+w, y)},
			})
		}
		lo, err := FromLibrary(&gdsii.Library{Name: "labels", Structures: []*gdsii.Structure{st}})
		if err != nil {
			t.Fatal(err)
		}
		c := lo.Top
		for _, p := range c.Polys {
			want := ""
			for _, l := range c.Labels {
				if l.Layer == p.Layer && p.Shape.ContainsPoint(l.Pos) {
					want = l.Text
					break
				}
			}
			if got := c.LabelIn(p.Layer, p.Shape); got != want {
				t.Fatalf("trial %d: polygon %v on %v named %q, scan finds %q", trial, p.Shape.MBR(), p.Layer, got, want)
			}
		}
	}
}
