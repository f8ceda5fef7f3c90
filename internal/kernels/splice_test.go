package kernels

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// referenceXOrder is the table's x-order as it was first built: a reflective
// sort.Slice over the index array with a closure comparing (XLo, index).
func referenceXOrder(boxes []geom.Rect) []int32 {
	order := make([]int32, len(boxes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if boxes[a].XLo != boxes[b].XLo {
			return boxes[a].XLo < boxes[b].XLo
		}
		return a < b
	})
	return order
}

// TestMBRTableOrderUnchanged pins the radix key sort to the order the
// reflective one produced, on every metal layer of the six synth designs.
func TestMBRTableOrderUnchanged(t *testing.T) {
	for _, design := range synth.Designs() {
		lo, _, err := synth.Load(design.Name, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []layout.Layer{layout.LayerM1, layout.LayerM2, layout.LayerM3} {
			flat := lo.FlattenLayer(l)
			boxes := make([]geom.Rect, len(flat))
			for i := range flat {
				boxes[i] = flat[i].Shape.MBR()
			}
			tab := NewMBRTable(boxes)
			if want := referenceXOrder(boxes); !reflect.DeepEqual(tab.XOrder, want) {
				t.Fatalf("%s layer %d: x-order of %d boxes differs from the reflective sort's", design.Name, l, len(boxes))
			}
		}
	}
}

// TestMBRTableOrderWideLayer: an x-extent past 32 bits (five radix passes),
// ties included.
func TestMBRTableOrderWideLayer(t *testing.T) {
	var boxes []geom.Rect
	for i := int64(0); i < 64; i++ {
		x := (i * 37 % 16) << 30 // 16 distinct XLo values up to 2^34, four boxes each
		boxes = append(boxes, geom.R(x, i, x+10, i+10))
	}
	if got, want := NewMBRTable(boxes).XOrder, referenceXOrder(boxes); !reflect.DeepEqual(got, want) {
		t.Fatalf("x-order %v, want %v", got, want)
	}
}

// spliceCase removes the marked polygons of shapes and appends add, through
// every splice, and requires the cold builds of the resulting list.
func spliceCase(t *testing.T, shapes []geom.Polygon, dead map[int]bool, add []geom.Polygon) {
	t.Helper()
	remap := make([]int32, len(shapes))
	first, n := len(shapes), int32(0)
	var want []geom.Polygon
	for i := range shapes {
		if dead[i] {
			remap[i] = -1
			first = min(first, i)
			continue
		}
		remap[i] = n
		n++
		want = append(want, shapes[i])
	}
	want = append(want, add...)
	boxesOf := func(ps []geom.Polygon) []geom.Rect {
		out := make([]geom.Rect, len(ps))
		for i, p := range ps {
			out[i] = p.MBR()
		}
		return out
	}

	e := Pack(shapes)
	kept := e.Splice(remap, first, add)
	cold := Pack(want)
	if !slices.Equal(e.Pts, cold.Pts) {
		t.Fatalf("spliced vertices differ from a cold pack (dead %v, %d added)", dead, len(add))
	}
	if !slices.Equal(e.PolyStart, cold.PolyStart) {
		t.Fatalf("spliced PolyStart differs from a cold pack (dead %v, %d added)", dead, len(add))
	}
	if wantKept := Pack(want[:n]).Bytes(); kept != wantKept {
		t.Fatalf("kept bytes = %d, want %d (the survivors' own pack)", kept, wantKept)
	}
	boxes := boxesOf(shapes)
	tab := NewMBRTable(boxes)
	spliced := append(Compact(boxes, remap, first), boxesOf(add)...)
	tab.Splice(remap, spliced)
	if cold := NewMBRTable(boxesOf(want)); !reflect.DeepEqual(tab, cold) {
		t.Fatalf("spliced table differs from a cold build (dead %v, %d added)", dead, len(add))
	}
	if unsafe.SliceData(tab.Boxes) != unsafe.SliceData(spliced) {
		t.Fatal("the spliced table does not share the spliced boxes")
	}
	if got := Compact(append([]geom.Polygon(nil), shapes...), remap, first); !reflect.DeepEqual(got, want[:n]) {
		t.Fatalf("Compact kept %d polygons, want %d", len(got), n)
	}
}

func TestSpliceMatchesColdBuild(t *testing.T) {
	rect := func(x, y, w, h int64) geom.Polygon {
		p, err := geom.NewPolygon([]geom.Point{geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+w, y+h), geom.Pt(x+w, y)})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ell, err := geom.NewPolygon([]geom.Point{
		geom.Pt(0, 0), geom.Pt(0, 40), geom.Pt(10, 40), geom.Pt(10, 10), geom.Pt(30, 10), geom.Pt(30, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Equal XLo values on both sides of the splice exercise the merge's tie
	// order; the L-shape makes edge counts uneven.
	shapes := []geom.Polygon{rect(50, 0, 10, 10), ell, rect(0, 100, 5, 5), rect(50, 200, 10, 10),
		rect(20, 300, 10, 10), ell, rect(50, 400, 10, 10)}
	add := []geom.Polygon{rect(50, 500, 4, 4), ell, rect(0, 600, 4, 4), rect(70, 700, 4, 4)}
	for _, dead := range []map[int]bool{
		{},
		{0: true},
		{6: true},
		{1: true, 2: true, 5: true},
		{0: true, 2: true, 4: true, 6: true},
		{1: true, 2: true, 3: true, 4: true, 5: true, 6: true},
	} {
		spliceCase(t, shapes, dead, add)
		spliceCase(t, shapes, dead, nil)
	}
}
