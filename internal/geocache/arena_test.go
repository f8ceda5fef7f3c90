package geocache

import (
	"testing"

	"opendrc/internal/geom"
)

// TestArenaRecycles pins the arena contract: a recycled buffer comes back
// zero-length with its grown capacity intact, and a fresh Get never aliases
// a buffer that is still outstanding.
func TestArenaRecycles(t *testing.T) {
	a := new(Arena)

	r := a.Rects(8)
	for i := 0; i < 50; i++ {
		r = append(r, geom.Rect{XLo: int64(i)})
	}
	a.PutRects(r)
	r2 := a.Rects(8)
	if len(r2) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(r2))
	}
	if cap(r2) < 50 {
		t.Errorf("recycled buffer lost its growth: cap = %d, want >= 50", cap(r2))
	}

	// Two outstanding buffers must not alias.
	x := a.Rects(4)
	y := a.Rects(4)
	x = append(x, geom.Rect{XLo: 1})
	y = append(y, geom.Rect{XLo: 2})
	if &x[0] == &y[0] {
		t.Fatal("outstanding buffers alias")
	}
	a.PutRects(x)
	a.PutRects(y)

	p := a.Polys(3)
	a.PutPolys(p[:0])
	pr := a.Pairs()
	pr = append(pr, [2]int{1, 2})
	a.PutPairs(pr)
	if got := a.Pairs(); len(got) != 0 {
		t.Fatalf("recycled pair buffer has len %d, want 0", len(got))
	}
}

// TestArenaAllocsSteadyState verifies the point of the arena: once warm, a
// get/fill/put cycle performs no allocations.
func TestArenaAllocsSteadyState(t *testing.T) {
	a := new(Arena)
	// Warm the pools.
	a.PutRects(a.Rects(64)[:0])
	allocs := testing.AllocsPerRun(100, func() {
		s := a.Rects(64)
		for i := 0; i < 64; i++ {
			s = append(s, geom.Rect{XLo: int64(i)})
		}
		a.PutRects(s)
	})
	if allocs > 0 {
		t.Errorf("steady-state rect cycle allocs = %v, want 0", allocs)
	}
}
