package layout

import (
	"strings"
	"testing"

	"opendrc/internal/gdsii"
	"opendrc/internal/geom"
)

// testLibrary builds a 3-level hierarchy:
//
//	TOP ── SREF ROW ×2 (at y=0 and y=1000, the second mirrored)
//	ROW ── AREF CELLA 4×1 (pitch 200)  +  one local M2 polygon
//	CELLA ── M1 polygon (100×80) + V1 via (20×20)
func testLibrary() *gdsii.Library {
	return &gdsii.Library{
		Name: "hier", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{
			{
				Name: "CELLA",
				Boundaries: []gdsii.Boundary{
					{Layer: int16(LayerM1), XY: []geom.Point{
						geom.Pt(0, 0), geom.Pt(0, 80), geom.Pt(100, 80), geom.Pt(100, 0),
					}},
					{Layer: int16(LayerV1), XY: []geom.Point{
						geom.Pt(40, 30), geom.Pt(40, 50), geom.Pt(60, 50), geom.Pt(60, 30),
					}},
				},
			},
			{
				Name: "ROW",
				Boundaries: []gdsii.Boundary{
					{Layer: int16(LayerM2), XY: []geom.Point{
						geom.Pt(0, 90), geom.Pt(0, 100), geom.Pt(800, 100), geom.Pt(800, 90),
					}},
				},
				ARefs: []gdsii.ARef{{
					Name: "CELLA", Cols: 4, Rows: 1,
					Origin: geom.Pt(0, 0), ColEnd: geom.Pt(800, 0), RowEnd: geom.Pt(0, 100),
				}},
			},
			{
				Name: "TOP",
				SRefs: []gdsii.SRef{
					{Name: "ROW", Pos: geom.Pt(0, 0)},
					{Name: "ROW", Pos: geom.Pt(0, 1000), Trans: gdsii.Trans{Reflect: true}},
				},
			},
		},
	}
}

func build(t *testing.T) *Layout {
	t.Helper()
	lo, err := FromLibrary(testLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func TestTopologicalOrder(t *testing.T) {
	lo := build(t)
	pos := map[string]int{}
	for i, c := range lo.Cells {
		pos[c.Name] = i
		if c.ID != i {
			t.Errorf("cell %s ID=%d at index %d", c.Name, c.ID, i)
		}
	}
	if !(pos["CELLA"] < pos["ROW"] && pos["ROW"] < pos["TOP"]) {
		t.Errorf("not topological: %v", pos)
	}
	if lo.Top.Name != "TOP" {
		t.Errorf("top = %s", lo.Top.Name)
	}
}

func TestLayerMBRs(t *testing.T) {
	lo := build(t)
	ca := lo.CellByName("CELLA")
	if got := ca.LayerMBR(LayerM1); got != geom.R(0, 0, 100, 80) {
		t.Errorf("CELLA M1 MBR = %v", got)
	}
	if got := ca.LayerMBR(LayerV1); got != geom.R(40, 30, 60, 50) {
		t.Errorf("CELLA V1 MBR = %v", got)
	}
	if !ca.LayerMBR(LayerM2).Empty() {
		t.Error("CELLA must have empty M2 MBR")
	}
	row := lo.CellByName("ROW")
	// AREF 4×1 pitch 200: instances at x=0,200,400,600; last box ends at 700.
	if got := row.LayerMBR(LayerM1); got != geom.R(0, 0, 700, 80) {
		t.Errorf("ROW M1 MBR = %v", got)
	}
	if got := row.LayerMBR(LayerM2); got != geom.R(0, 90, 800, 100) {
		t.Errorf("ROW M2 MBR = %v", got)
	}
	top := lo.Top
	// Second ROW is mirrored about x-axis then translated to y=1000: M1 box
	// [0,80] maps to [920,1000].
	if got := top.LayerMBR(LayerM1); got != geom.R(0, 0, 700, 1000) {
		t.Errorf("TOP M1 MBR = %v", got)
	}
	if !top.HasLayer(LayerV1) || top.HasLayer(LayerM3) {
		t.Error("HasLayer wrong on TOP")
	}
}

func TestLayerWiseTreesAndInvertedIndex(t *testing.T) {
	lo := build(t)
	m2cells := lo.LayerCells(LayerM2)
	for _, c := range m2cells {
		if c.Name == "CELLA" {
			t.Error("CELLA must not appear in the M2 duplicated tree")
		}
	}
	names := make([]string, len(m2cells))
	for i, c := range m2cells {
		names[i] = c.Name
	}
	if strings.Join(names, ",") != "ROW,TOP" {
		t.Errorf("M2 tree = %v", names)
	}
	if n := lo.NumPolysOnLayer(LayerM1); n != 1 {
		t.Errorf("M1 definitions = %d, want 1 (shared)", n)
	}
	if n := lo.NumInstancesOnLayer(LayerM1); n != 8 {
		t.Errorf("M1 instances = %d, want 8 (4 per row × 2 rows)", n)
	}
	if n := lo.NumInstancesOnLayer(LayerM2); n != 2 {
		t.Errorf("M2 instances = %d, want 2", n)
	}
}

func TestQueryLayerPruning(t *testing.T) {
	lo := build(t)
	// Window covering only the first CELLA of the bottom row.
	got, st := lo.QueryLayer(LayerM1, geom.R(0, 0, 50, 50))
	if len(got) != 1 {
		t.Fatalf("hits = %d, want 1", len(got))
	}
	if got[0].Shape.MBR() != geom.R(0, 0, 100, 80) {
		t.Errorf("hit shape MBR = %v", got[0].Shape.MBR())
	}
	if st.NodesPruned == 0 {
		t.Error("expected subtree pruning during narrow query")
	}
	// Whole-layer query returns all 8 instances.
	all, _ := lo.QueryLayer(LayerM1, lo.Top.LayerMBR(LayerM1))
	if len(all) != 8 {
		t.Errorf("full-layer hits = %d, want 8", len(all))
	}
	// Querying a layer absent from the subtree prunes everything.
	none, st2 := lo.QueryLayer(LayerM3, geom.R(0, 0, 1e6, 1e6))
	if len(none) != 0 {
		t.Errorf("M3 hits = %d", len(none))
	}
	if st2.PolysTested != 0 {
		t.Errorf("M3 query tested %d polys; pruning failed", st2.PolysTested)
	}
}

func TestFlattenLayerTransforms(t *testing.T) {
	lo := build(t)
	polys := lo.FlattenLayer(LayerM1)
	if len(polys) != 8 {
		t.Fatalf("flattened M1 = %d", len(polys))
	}
	// Collect MBRs; mirrored row must land at y in [920,1000].
	var sawMirrored bool
	for _, pp := range polys {
		r := pp.Shape.MBR()
		if r.YLo == 920 && r.YHi == 1000 {
			sawMirrored = true
		}
		if pp.Shape.Area() != 100*80 {
			t.Errorf("instance area = %d", pp.Shape.Area())
		}
	}
	if !sawMirrored {
		t.Error("mirrored row instances missing")
	}
}

func TestUndefinedReference(t *testing.T) {
	lib := testLibrary()
	lib.Structures[2].SRefs = append(lib.Structures[2].SRefs,
		gdsii.SRef{Name: "GHOST", Pos: geom.Pt(0, 0)})
	if _, err := FromLibrary(lib); err == nil || !strings.Contains(err.Error(), "GHOST") {
		t.Errorf("expected undefined-reference error, got %v", err)
	}
}

func TestReferenceCycle(t *testing.T) {
	lib := &gdsii.Library{
		Name: "cyc",
		Structures: []*gdsii.Structure{
			{Name: "A", SRefs: []gdsii.SRef{{Name: "B", Pos: geom.Pt(0, 0)}}},
			{Name: "B", SRefs: []gdsii.SRef{{Name: "A", Pos: geom.Pt(0, 0)}}},
		},
	}
	if _, err := FromLibrary(lib); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestDuplicateStructure(t *testing.T) {
	lib := &gdsii.Library{
		Name: "dup",
		Structures: []*gdsii.Structure{
			{Name: "A", Boundaries: []gdsii.Boundary{{Layer: 1, XY: []geom.Point{
				geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, 0)}}}},
			{Name: "A"},
		},
	}
	if _, err := FromLibrary(lib); err == nil {
		t.Error("expected duplicate-structure error")
	}
}

func TestExpandPath(t *testing.T) {
	p := gdsii.Path{Layer: 3, Width: 20, XY: []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 200),
	}}
	rects, err := pathRects(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 2 {
		t.Fatalf("segments = %d", len(rects))
	}
	if rects[0] != geom.R(0, -10, 100, 10) {
		t.Errorf("h segment = %v", rects[0])
	}
	if rects[1] != geom.R(90, 0, 110, 200) {
		t.Errorf("v segment = %v", rects[1])
	}
	// Extended ends grow first/last segments by half width.
	p.PathType = gdsii.PathExtended
	rects, err = pathRects(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rects[0] != geom.R(-10, -10, 100, 10) {
		t.Errorf("extended h segment = %v", rects[0])
	}
	if rects[1] != geom.R(90, 0, 110, 210) {
		t.Errorf("extended v segment = %v", rects[1])
	}
	// Error paths.
	if _, err := pathRects(gdsii.Path{Width: 0, XY: p.XY}, nil); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := pathRects(gdsii.Path{Width: 15, XY: p.XY}, nil); err == nil {
		t.Error("expected error for odd width")
	}
	diag := gdsii.Path{Width: 20, XY: []geom.Point{geom.Pt(0, 0), geom.Pt(50, 50)}}
	if _, err := pathRects(diag, nil); err == nil {
		t.Error("expected error for diagonal segment")
	}
}

func TestLayersSorted(t *testing.T) {
	lo := build(t)
	ls := lo.Layers()
	for i := 1; i < len(ls); i++ {
		if ls[i-1] >= ls[i] {
			t.Errorf("layers not sorted: %v", ls)
		}
	}
	if len(ls) != 3 { // M1, M2, V1
		t.Errorf("layers = %v", ls)
	}
	cl := lo.CellByName("CELLA").Layers()
	if len(cl) != 2 || cl[0] != LayerM1 || cl[1] != LayerV1 {
		t.Errorf("CELLA layers = %v", cl)
	}
}

func TestLayerNames(t *testing.T) {
	if LayerName(LayerM1) != "M1" || LayerName(LayerV2) != "V2" {
		t.Error("well-known layer names wrong")
	}
	if LayerName(Layer(99)) != "L99" {
		t.Errorf("fallback name = %s", LayerName(Layer(99)))
	}
}

func TestLocalEdgeCount(t *testing.T) {
	lo := build(t)
	ca := lo.CellByName("CELLA")
	if got := ca.LocalEdgeCount(LayerM1); got != 4 {
		t.Errorf("M1 edges = %d", got)
	}
	if got := ca.LocalEdgeCount(LayerM2); got != 0 {
		t.Errorf("M2 edges = %d", got)
	}
	if idx := ca.LocalPolyIndex(LayerV1); len(idx) != 1 || ca.Polys[idx[0]].Layer != LayerV1 {
		t.Errorf("LocalPolyIndex(V1) = %v", idx)
	}
}

func TestFromLibraryWithPaths(t *testing.T) {
	lib := &gdsii.Library{
		Name: "paths", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*gdsii.Structure{{
			Name: "TOP",
			Paths: []gdsii.Path{{
				Layer: int16(LayerM2), Width: 30,
				XY: []geom.Point{geom.Pt(0, 15), geom.Pt(400, 15)},
			}},
		}},
	}
	lo, err := FromLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	polys := lo.FlattenLayer(LayerM2)
	if len(polys) != 1 {
		t.Fatalf("expanded paths = %d", len(polys))
	}
	if got := polys[0].Shape.MBR(); got != geom.R(0, 0, 400, 30) {
		t.Errorf("path polygon = %v", got)
	}
	// A bad path must fail the whole build with a located error.
	lib.Structures[0].Paths = append(lib.Structures[0].Paths, gdsii.Path{
		Layer: int16(LayerM2), Width: 30,
		XY: []geom.Point{geom.Pt(0, 0), geom.Pt(50, 50)},
	})
	if _, err := FromLibrary(lib); err == nil || !strings.Contains(err.Error(), "TOP") {
		t.Errorf("diagonal path accepted: %v", err)
	}
}

func TestPlacementsCounts(t *testing.T) {
	lo := build(t)
	placements := lo.Placements()
	if n := len(placements[lo.Top.ID]); n != 1 {
		t.Errorf("top placements = %d", n)
	}
	ca := lo.CellByName("CELLA")
	if n := len(placements[ca.ID]); n != 8 {
		t.Errorf("CELLA placements = %d, want 8", n)
	}
	row := lo.CellByName("ROW")
	if n := len(placements[row.ID]); n != 2 {
		t.Errorf("ROW placements = %d, want 2", n)
	}
	// Every CELLA placement must map its local M1 box into the global M1 MBR.
	topM1 := lo.Top.LayerMBR(LayerM1)
	for _, tr := range placements[ca.ID] {
		inst := tr.ApplyRect(ca.LayerMBR(LayerM1))
		if !topM1.ContainsRect(inst) {
			t.Errorf("placement %v escapes top M1 MBR", tr)
		}
	}
}

func TestQuerySubtreeLocalFrame(t *testing.T) {
	lo := build(t)
	row := lo.CellByName("ROW")
	// In ROW's local frame the M1 instances sit at x = 0,200,400,600.
	polys := lo.QuerySubtree(row, LayerM1, geom.R(0, 0, 150, 100))
	if len(polys) != 1 {
		t.Fatalf("subtree hits = %d", len(polys))
	}
	if got := polys[0].Shape.MBR(); got != geom.R(0, 0, 100, 80) {
		t.Errorf("local-frame shape = %v", got)
	}
}

func TestCompressionStats(t *testing.T) {
	lo := build(t)
	st := lo.Compression()
	// Definitions: CELLA (2 polys), ROW (1), TOP (0) = 3 polys.
	// Instances: CELLA ×8 (16 polys) + ROW ×2 (2) + TOP ×1 (0) = 18.
	if st.DefinitionPolys != 3 || st.InstancePolys != 18 {
		t.Errorf("compression polys: %+v", st)
	}
	if st.InstanceCells != 11 || st.DefinitionCells != 3 {
		t.Errorf("compression cells: %+v", st)
	}
	if st.Ratio != 6 {
		t.Errorf("ratio = %g", st.Ratio)
	}
}
