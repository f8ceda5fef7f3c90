package layout

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// linearQuery is the walk as it was before the spatial index: every own
// polygon and every child placement of every descended cell is examined. It
// is the reference the indexed walk must reproduce slice for slice.
func linearQuery(c *Cell, t geom.Transform, l Layer, window geom.Rect, out *[]PlacedPoly, st *QueryStats) {
	st.NodesVisited++
	for _, pi := range c.slot(l).polys {
		i := int(pi)
		p := &c.Polys[i]
		st.PolysTested++
		if !t.ApplyRect(p.Shape.MBR()).Overlaps(window) {
			continue
		}
		st.PolysHit++
		*out = append(*out, PlacedPoly{
			Src:   PolyRef{Cell: c, Idx: i},
			Trans: t,
			Shape: p.Shape.Transform(t),
		})
	}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		childR := ref.Child.LayerMBR(l)
		if childR.Empty() {
			st.NodesPruned++
			continue
		}
		ref.ForEachPlacement(func(pt geom.Transform) {
			inst := pt.Compose(t)
			if !inst.ApplyRect(childR).Overlaps(window) {
				st.NodesPruned++
				return
			}
			linearQuery(ref.Child, inst, l, window, out, st)
		})
	}
}

// diffQuery returns a description of the first difference between an indexed
// subtree query and the linear reference ("" when they agree): the slices
// must be equal element for element, in order, and PolysHit must match.
func diffQuery(c *Cell, l Layer, window geom.Rect) string {
	var want []PlacedPoly
	var wst QueryStats
	linearQuery(c, geom.Identity(), l, window, &want, &wst)
	// The walk with each shape its own allocation, carving the shapes from a
	// slab too small for them, so it grows, and reporting no shapes
	// (QueryLayerPlaces).
	for _, q := range []query{{l: l, window: window}, {l: l, window: window, slab: geom.NewSlab(1)}, {l: l, window: window, bare: true}} {
		q.cell(c, geom.Identity())
		mode := fmt.Sprintf("slab %v, bare %v", q.slab != nil, q.bare)
		if len(q.out) != len(want) {
			return fmt.Sprintf("%s: %d polygons, want %d", mode, len(q.out), len(want))
		}
		for i := range want {
			g, w := q.out[i], want[i]
			if g.Src != w.Src || g.Trans != w.Trans || !q.bare && !g.Shape.Equal(w.Shape) {
				return fmt.Sprintf("%s: element %d: %v %v %v, want %v %v %v", mode, i, g.Src.Idx, g.Trans, g.Shape, w.Src.Idx, w.Trans, w.Shape)
			}
		}
		if q.st.PolysHit != wst.PolysHit {
			return fmt.Sprintf("%s: PolysHit %d, want %d", mode, q.st.PolysHit, wst.PolysHit)
		}
		if len(q.cand) != 0 {
			return fmt.Sprintf("%s: candidate stack left %d deep", mode, len(q.cand))
		}
	}
	return ""
}

// fuzzStream hands out the fuzz input byte by byte and, once that is
// exhausted, the output of a generator seeded by the input's hash: every
// input, however short, decodes to a full and varied scenario.
type fuzzStream struct {
	data []byte
	pos  int
	rng  uint64
}

func newFuzzStream(data []byte) *fuzzStream {
	h := fnv.New64a()
	h.Write(data)
	return &fuzzStream{data: data, rng: h.Sum64() | 1}
}

func (s *fuzzStream) byte() int {
	if s.pos < len(s.data) {
		s.pos++
		return int(s.data[s.pos-1])
	}
	s.rng ^= s.rng << 13 // xorshift64
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return int(s.rng >> 32 & 0xff)
}

// n returns a value in [0, max).
func (s *fuzzStream) n(max int) int { return s.byte() % max }

// coord returns a coordinate in [0, 65536) on a grid of 8.
func (s *fuzzStream) coord() int64 { return int64(s.byte()<<8|s.byte()) &^ 7 }

func (s *fuzzStream) trans(allowMag bool) gdsii.Trans {
	k := s.byte()
	tr := gdsii.Trans{Reflect: k&4 != 0, AngleDeg: float64(k&3) * 90}
	if allowMag && k&0xf0 == 0xf0 {
		tr.Mag = 2
	}
	return tr
}

func rectXY(r geom.Rect) []geom.Point {
	return []geom.Point{geom.Pt(r.XLo, r.YLo), geom.Pt(r.XLo, r.YHi), geom.Pt(r.XHi, r.YHi), geom.Pt(r.XHi, r.YLo)}
}

var fuzzLayers = []Layer{LayerM1, LayerM2}

// fuzzLibrary decodes a four-level hierarchy TOP → BLOCK → ROW → LEAFn. ROW
// and TOP always carry more than indexMinItems placements, so both levels
// are indexed and the candidate stack nests; placements take all eight
// orientations, some are AREFs, some are magnified, and both indexed cells
// own long wires that cross many of their placements.
func fuzzLibrary(s *fuzzStream) *gdsii.Library {
	lib := &gdsii.Library{Name: "fuzz", UserUnit: 1e-3, MeterUnit: 1e-9}
	leaves := []string{"LEAF0", "LEAF1", "LEAF2"}
	for i, name := range leaves {
		st := &gdsii.Structure{Name: name}
		for k := 0; k <= s.n(3); k++ {
			x, y := int64(s.n(6)*8), int64(s.n(6)*8)
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{
				Layer: int16(fuzzLayers[(i+k)%2]),
				XY:    rectXY(geom.R(x, y, x+8+int64(s.n(8)*8), y+8+int64(s.n(8)*8))),
			})
		}
		lib.Structures = append(lib.Structures, st)
	}
	wires := func(st *gdsii.Structure, n int) {
		for k := 0; k < n; k++ {
			x, y := s.coord()/4, s.coord()/4
			r := geom.R(x, y, x+8+int64(s.n(200)*64), y+8)
			if s.n(2) == 1 {
				r = geom.R(x, y, x+8, y+8+int64(s.n(200)*64))
			}
			st.Boundaries = append(st.Boundaries, gdsii.Boundary{Layer: int16(fuzzLayers[s.n(2)]), XY: rectXY(r)})
		}
	}
	place := func(st *gdsii.Structure, n int, span int64, allowMag bool) {
		for k := 0; k < n; k++ {
			name := leaves[s.n(len(leaves))]
			pos := geom.Pt(s.coord()%span, s.coord()%span)
			if s.n(5) == 0 {
				cols, rows := int16(1+s.n(6)), int16(1+s.n(3))
				dx, dy := int64(64+s.n(4)*8), int64(64+s.n(4)*8)
				st.ARefs = append(st.ARefs, gdsii.ARef{
					Name: name, Trans: s.trans(allowMag), Cols: cols, Rows: rows, Origin: pos,
					ColEnd: pos.Add(geom.Pt(dx*int64(cols), 0)), RowEnd: pos.Add(geom.Pt(0, dy*int64(rows))),
				})
				continue
			}
			st.SRefs = append(st.SRefs, gdsii.SRef{Name: name, Trans: s.trans(allowMag), Pos: pos})
		}
	}

	row := &gdsii.Structure{Name: "ROW"}
	place(row, indexMinItems+4+s.n(40), 4096, true)
	wires(row, s.n(6))

	block := &gdsii.Structure{Name: "BLOCK"}
	for k := 0; k <= s.n(4); k++ {
		block.SRefs = append(block.SRefs, gdsii.SRef{Name: "ROW", Trans: s.trans(true), Pos: geom.Pt(s.coord()/4, s.coord()/4)})
	}
	place(block, s.n(8), 8192, true)
	wires(block, s.n(4))

	top := &gdsii.Structure{Name: "TOP"}
	for k := 0; k <= s.n(3); k++ {
		top.SRefs = append(top.SRefs, gdsii.SRef{Name: "BLOCK", Trans: s.trans(true), Pos: geom.Pt(s.coord(), s.coord())})
	}
	top.SRefs = append(top.SRefs, gdsii.SRef{Name: "ROW", Trans: s.trans(false), Pos: geom.Pt(s.coord(), s.coord())})
	place(top, indexMinItems+4+s.n(60), 65536, false)
	wires(top, 2+s.n(8))

	lib.Structures = append(lib.Structures, row, block, top)
	return lib
}

// fuzzWindow decodes one query window of the kinds callers issue: a point,
// a via-sized box, a degenerate (zero-width) box, a box of arbitrary size,
// the empty rect, a window covering the layer, and the full-width y-band
// geocache's segmented rebuild queries with.
func fuzzWindow(s *fuzzStream, extent geom.Rect) geom.Rect {
	const band = int64(1) << 60
	x, y := extent.XLo+s.coord()*2-32768, extent.YLo+s.coord()*2-32768
	switch s.n(8) {
	case 0:
		return geom.R(x, y, x, y)
	case 1:
		return geom.R(x, y, x+24, y+24)
	case 2:
		return geom.R(x, y, x, y+int64(s.n(64)*64))
	case 3:
		return geom.EmptyRect()
	case 4:
		return extent.Expand(int64(s.n(3)))
	case 5:
		return geom.Rect{XLo: -band, YLo: y, XHi: band, YHi: y + int64(s.n(64)*32)}
	default:
		return geom.R(x, y, x+int64(s.n(128)*64), y+int64(s.n(128)*64))
	}
}

// fuzzEdits decodes one ApplyEdits batch against the top cell. One batch in
// eight inserts more than indexMaxTail rectangles on one layer, so a built
// tree is dropped and rebuilt over the edited cell.
func fuzzEdits(s *fuzzStream, extent geom.Rect) []Edit {
	n, big := 1+s.n(6), s.n(8) == 0
	if big {
		n = indexMaxTail + 1 + s.n(8)
	}
	l := fuzzLayers[s.n(2)]
	edits := make([]Edit, 0, n)
	for k := 0; k < n; k++ {
		if !big {
			l = fuzzLayers[s.n(2)]
		}
		x, y := extent.XLo+s.coord(), extent.YLo+s.coord()
		if !big && s.n(3) == 0 {
			edits = append(edits, Edit{Op: OpDeleteRegion, Layer: l, Rect: geom.R(x, y, x+int64(s.n(64)*64), y+int64(s.n(64)*64))})
			continue
		}
		edits = append(edits, Edit{Op: OpInsertRect, Layer: l, Rect: geom.R(x, y, x+8+int64(s.n(32)*8), y+8+int64(s.n(32)*8))})
	}
	return edits
}

// FuzzQueryLayer drives the indexed walk against the linear reference over
// random hierarchies, windows and edit sequences: every query — from the top
// cell and from the indexed mid-level cell — must return the reference's
// slice exactly, order included, with the same PolysHit.
func FuzzQueryLayer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{0xf3, 0xf7, 0xf1, 0xf5, 0xf0, 0xf2, 0xf4, 0xf6, 9, 9, 9, 9, 200, 200, 200, 200, 31, 31, 31, 31, 77, 77, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newFuzzStream(data)
		lo, err := FromLibrary(fuzzLibrary(s))
		if err != nil {
			t.Skip(err) // e.g. an odd-pitch AREF; not what is under test
		}
		row := lo.CellByName("ROW")
		check := func(stage string) {
			for k := 0; k < 6; k++ {
				l := fuzzLayers[s.n(2)]
				w := fuzzWindow(s, lo.Top.MBR())
				if d := diffQuery(lo.Top, l, w); d != "" {
					t.Fatalf("%s: QueryLayer(%v, %v): %s", stage, l, w, d)
				}
				w = fuzzWindow(s, row.MBR())
				if d := diffQuery(row, l, w); d != "" {
					t.Fatalf("%s: QuerySubtree(ROW, %v, %v): %s", stage, l, w, d)
				}
			}
		}
		check("fresh")
		for round := 0; round < 1+s.n(6); round++ {
			edits := fuzzEdits(s, lo.Top.MBR())
			if _, err := lo.ApplyEdits(edits); err != nil {
				t.Fatal(err)
			}
			stage := fmt.Sprintf("after edit batch %d", round)
			for _, ed := range edits[:min(len(edits), 4)] { // where geometry just appeared or vanished
				if d := diffQuery(lo.Top, ed.Layer, ed.Rect); d != "" {
					t.Fatalf("%s: QueryLayer(%v, %v): %s", stage, ed.Layer, ed.Rect, d)
				}
			}
			check(stage)
		}
	})
}

// TestIndexedCellsAreExercised guards the fuzz scenario itself: its top and
// ROW cells must carry index slots, covering queries must leave them
// unbuilt, and narrow queries must build them and examine far fewer polygons
// than the linear walk does.
func TestIndexedCellsAreExercised(t *testing.T) {
	data := []byte("a scenario whose bytes vary enough to spread placements over the extent")
	lo, err := FromLibrary(fuzzLibrary(newFuzzStream(data)))
	if err != nil {
		t.Fatal(err)
	}
	top, row := lo.Top, lo.CellByName("ROW")
	for _, c := range []*Cell{top, row} {
		if c.slot(LayerM1).index == nil {
			t.Fatalf("%s has no M1 index slot", c.Name)
		}
	}
	lo.FlattenLayer(LayerM1)
	lo.QueryLayer(LayerM1, top.LayerMBR(LayerM1))
	if top.slot(LayerM1).index.tree != nil || row.slot(LayerM1).index.tree != nil {
		t.Fatal("a covering query built an index")
	}
	// Tile the extent with narrow windows: some fall inside TOP's
	// unmagnified ROW instance without covering it.
	const grid = 16
	ext := top.LayerMBR(LayerM1)
	indexed, linear := 0, 0
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			w := geom.R(ext.XLo+ext.Width()*int64(i)/grid, ext.YLo+ext.Height()*int64(j)/grid,
				ext.XLo+ext.Width()*int64(i+1)/grid, ext.YLo+ext.Height()*int64(j+1)/grid)
			_, st := lo.QueryLayer(LayerM1, w)
			var want []PlacedPoly
			var wst QueryStats
			linearQuery(top, geom.Identity(), LayerM1, w, &want, &wst)
			if st.PolysHit != wst.PolysHit {
				t.Fatalf("window %v: PolysHit %d, want %d", w, st.PolysHit, wst.PolysHit)
			}
			indexed += st.PolysTested + st.NodesPruned
			linear += wst.PolysTested + wst.NodesPruned
		}
	}
	if top.slot(LayerM1).index.tree == nil || row.slot(LayerM1).index.tree == nil {
		t.Fatal("narrow queries through TOP and ROW left an index unbuilt")
	}
	if indexed*4 > linear {
		t.Fatalf("indexed walks examined %d items, linear walks %d: want under a quarter", indexed, linear)
	}
}

// TestMagnifiedFrameTakesPlainWalk pins the choice for magnified frames: a
// window has no exact inverse image under magnification, so an indexable
// cell placed with Mag 2 is walked plainly — identical work counts to the
// linear reference, and no tree built.
func TestMagnifiedFrameTakesPlainWalk(t *testing.T) {
	big := &gdsii.Structure{Name: "BIG"}
	for k := 0; k < 2*indexMinItems; k++ {
		big.SRefs = append(big.SRefs, gdsii.SRef{Name: "UNIT", Pos: geom.Pt(int64(k)*40, 0)})
	}
	lo, err := FromLibrary(&gdsii.Library{Name: "mag", UserUnit: 1e-3, MeterUnit: 1e-9, Structures: []*gdsii.Structure{
		{Name: "UNIT", Boundaries: []gdsii.Boundary{{Layer: int16(LayerM1), XY: rectXY(geom.R(0, 0, 20, 20))}}},
		big,
		{Name: "TOP", SRefs: []gdsii.SRef{{Name: "BIG", Trans: gdsii.Trans{Mag: 2, AngleDeg: 90}, Pos: geom.Pt(500, 500)}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	bigCell := lo.CellByName("BIG")
	if bigCell.slot(LayerM1).index == nil {
		t.Fatal("BIG has no index slot")
	}
	window := geom.R(470, 700, 490, 720) // inside the magnified row, far from covering it
	got, st := lo.QueryLayer(LayerM1, window)
	var want []PlacedPoly
	var wst QueryStats
	linearQuery(lo.Top, geom.Identity(), LayerM1, window, &want, &wst)
	if len(got) == 0 || len(got) != len(want) || st != wst {
		t.Fatalf("got %d polygons, stats %+v; linear walk %d, %+v", len(got), st, len(want), wst)
	}
	if bigCell.slot(LayerM1).index.tree != nil {
		t.Fatal("a query in a magnified frame built the index")
	}
	// The same cell queried in its own (unmagnified) frame does use it.
	if d := diffQuery(bigCell, LayerM1, geom.R(100, 0, 130, 10)); d != "" {
		t.Fatal(d)
	}
	if bigCell.slot(LayerM1).index.tree == nil {
		t.Fatal("a narrow unmagnified query left the index unbuilt")
	}
}

// TestConcurrentFirstQueries fires the first queries a fresh layout ever
// sees from many goroutines at once — same layer and different layers, as
// geocache's per-layer flattens, KLayout tiles and the prefetch fan-out do —
// so the lazy index build is raced (run under -race). Every result must
// equal the linear reference.
func TestConcurrentFirstQueries(t *testing.T) {
	data := []byte("concurrent first queries share one lazily built index per cell and layer")
	for round := 0; round < 4; round++ {
		lo, err := FromLibrary(fuzzLibrary(newFuzzStream(data)))
		if err != nil {
			t.Fatal(err)
		}
		ext := lo.Top.MBR()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				l := fuzzLayers[g%2]
				for k := 0; k < 20; k++ {
					x := ext.XLo + ext.Width()*int64((g*20+k)%37)/37
					y := ext.YLo + ext.Height()*int64((g*20+k)%31)/31
					w := geom.R(x, y, x+600, y+400)
					if d := diffQuery(lo.Top, l, w); d != "" {
						t.Errorf("goroutine %d: QueryLayer(%v, %v): %s", g, l, w, d)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestEditsKeepIndex pins the edit maintenance: a built tree survives
// ApplyEdits (no rebuild per edit) — inserted polygons are found through the
// tail, deleted ones are gone — until more than indexMaxTail polygons have
// been inserted on the layer, when the slot is reset for a lazy rebuild.
func TestEditsKeepIndex(t *testing.T) {
	lo, err := FromLibrary(fuzzLibrary(newFuzzStream([]byte("edits"))))
	if err != nil {
		t.Fatal(err)
	}
	top := lo.Top
	probe := geom.R(top.MBR().XHi+100, top.MBR().YHi+100, top.MBR().XHi+140, top.MBR().YHi+140)
	if got, _ := lo.QueryLayer(LayerM1, probe); len(got) != 0 {
		t.Fatalf("probe window outside the layout hit %d polygons", len(got))
	}
	tree := top.slot(LayerM1).index.tree
	if tree == nil {
		t.Fatal("narrow query left the top index unbuilt")
	}
	apply := func(edits ...Edit) {
		t.Helper()
		if _, err := lo.ApplyEdits(edits); err != nil {
			t.Fatal(err)
		}
		if d := diffQuery(top, LayerM1, probe.Expand(10)); d != "" {
			t.Fatal(d)
		}
	}
	apply(Edit{Op: OpInsertRect, Layer: LayerM1, Rect: probe})
	if got, _ := lo.QueryLayer(LayerM1, probe); len(got) != 1 || top.slot(LayerM1).index.tree != tree {
		t.Fatalf("after insert: %d hits (want 1), tree kept = %v", len(got), top.slot(LayerM1).index.tree == tree)
	}
	apply(Edit{Op: OpDeleteRegion, Layer: LayerM1, Rect: probe})
	if got, _ := lo.QueryLayer(LayerM1, probe); len(got) != 0 || top.slot(LayerM1).index.tree != tree {
		t.Fatalf("after delete: %d hits (want 0), tree kept = %v", len(got), top.slot(LayerM1).index.tree == tree)
	}
	batch := make([]Edit, indexMaxTail)
	for k := range batch {
		batch[k] = Edit{Op: OpInsertRect, Layer: LayerM1, Rect: probe.Translate(geom.Pt(int64(k)*50, 0))}
	}
	apply(batch...)
	if top.slot(LayerM1).index.tree != tree {
		t.Fatalf("a tail of %d polygons dropped the tree", indexMaxTail)
	}
	if _, err := lo.ApplyEdits([]Edit{{Op: OpInsertRect, Layer: LayerM1, Rect: probe.Translate(geom.Pt(0, 50))}}); err != nil {
		t.Fatal(err)
	}
	if top.slot(LayerM1).index.tree != nil {
		t.Fatalf("a tail of %d polygons kept the tree", indexMaxTail+1)
	}
	if d := diffQuery(top, LayerM1, probe.Expand(10)); d != "" {
		t.Fatal(d)
	}
	if rebuilt := top.slot(LayerM1).index.tree; rebuilt == nil || int(rebuilt.polyEnd) != len(top.Polys) {
		t.Fatal("the next narrow query did not rebuild the tree over the edited cell")
	}
}
