package kernels

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"opendrc/internal/freelist"
	"opendrc/internal/geom"
)

// TestPackAllocsPerRun is the regression gate for the counting-pass Pack:
// whatever the polygon count, packing costs exactly three allocations — the
// Edges header, the vertex backing, and the PolyStart table. Growth-by-append
// would scale with the edge count and trip this immediately.
func TestPackAllocsPerRun(t *testing.T) {
	polys := make([]geom.Polygon, 0, 256)
	for i := 0; i < 256; i++ {
		x := int64(i) * 100
		polys = append(polys, geom.MustPolygon([]geom.Point{
			geom.Pt(x, 0), geom.Pt(x+40, 0), geom.Pt(x+40, 40), geom.Pt(x, 40),
		}))
	}
	allocs := testing.AllocsPerRun(10, func() {
		e := Pack(polys)
		if e.Len() != 4*len(polys) {
			t.Fatalf("Len = %d", e.Len())
		}
	})
	if allocs > 3 {
		t.Errorf("Pack allocs = %v, want <= 3 (header, vertices, PolyStart)", allocs)
	}
}

// TestPackContiguousLayout pins the host layout: one vertex array, exactly
// sized.
func TestPackContiguousLayout(t *testing.T) {
	polys := []geom.Polygon{
		geom.MustPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}),
	}
	e := Pack(polys)
	n := e.Len()
	if n == 0 {
		t.Fatal("empty pack")
	}
	if len(e.Pts) != n || cap(e.Pts) != n {
		t.Errorf("vertices: len/cap = %d/%d, want %d/%d", len(e.Pts), cap(e.Pts), n, n)
	}
}

// allocatedBytes is the heap bytes fn allocates, the mean of runs calls.
func allocatedBytes(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPackHostBytes pins the host cost of a packed buffer: 16 B per edge
// (one point per vertex) plus 4 B per PolyStart entry, plus a constant
// for the header and size-class rounding — not the 52 B per edge that Bytes
// prices for the device.
func TestPackHostBytes(t *testing.T) {
	polys := randomRectilinear(rand.New(rand.NewSource(16)), 20_000)
	e := Pack(polys)
	limit := float64(16*e.Len()+4*(e.NumPolys()+1)) + 16<<10
	if got := allocatedBytes(5, func() { Pack(polys) }); got > limit {
		t.Errorf("Pack of %d edges allocates %.0f B, want <= %.0f (16 B/edge + 4 B/polygon + 16 KiB)", e.Len(), got, limit)
	}
	if e.Bytes() < int64(52*e.Len()) {
		t.Errorf("Bytes() = %d, want the device layout's 52 B per edge", e.Bytes())
	}
}

// TestMBRTableSharesBoxes pins that a table keeps nothing but its x-order:
// Boxes is the caller's slice itself, and the heap a live table holds on to
// beyond it is the 4 B-per-box order (building it also takes a transient key
// column and sort buffer, garbage on return).
func TestMBRTableSharesBoxes(t *testing.T) {
	boxes := make([]geom.Rect, 200_000)
	rng := rand.New(rand.NewSource(7))
	for i := range boxes {
		x, y := rng.Int63n(1<<30), rng.Int63n(1<<30)
		boxes[i] = geom.R(x, y, x+1+rng.Int63n(100), y+1+rng.Int63n(100))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewMBRTable(boxes)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if unsafe.SliceData(tab.Boxes) != unsafe.SliceData(boxes) || len(tab.Boxes) != len(boxes) {
		t.Fatal("the table copied its boxes")
	}
	if len(tab.XOrder) != len(boxes) || cap(tab.XOrder) != len(boxes) {
		t.Fatalf("x-order len/cap = %d/%d, want %d", len(tab.XOrder), cap(tab.XOrder), len(boxes))
	}
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(4*len(boxes)) + 64<<10; kept > limit {
		t.Errorf("a live table keeps %d B, want <= %d (its x-order + 64 KiB)", kept, limit)
	}
	runtime.KeepAlive(tab)
}

// TestScratchIsOpaque holds Scratch to the freelist's recycling rule: the
// engine recycles it across sweep rows, so nothing it hands out may alias
// its columns.
func TestScratchIsOpaque(t *testing.T) {
	if err := freelist.Opaque(reflect.TypeOf(Scratch{})); err != nil {
		t.Fatal(err)
	}
}
