package geocache

import (
	"opendrc/internal/freelist"
	"opendrc/internal/geom"
	"opendrc/internal/kernels"
)

// Arena is the per-run recycled scratch allocator for the host hot paths.
// Each Cache owns one Arena (created with it, sharing its lifetime; the zero
// value is ready to use), which hands out the short-lived buffers
// the flatten/pack/sweep pipeline used to allocate fresh per rule or per
// row: polygon shape lists fed to kernels.Pack, expanded-MBR lists fed to
// the sweepline, candidate-pair lists, and the gathered sweep columns of the
// parallel mode's row simulation. Each kind recycles through its own
// freelist.List, whose ownership rules (scratch only, any goroutine, never
// a cached table's buffer) apply here (DESIGN.md §9). Every Get returns a
// zero-length slice with whatever capacity a previous user grew, and
// contents are garbage after Put: callers append or resize explicitly, so
// recycling cannot change results, only costs.
type Arena struct {
	polys freelist.List[[]geom.Polygon]
	rects freelist.List[[]geom.Rect]
	pairs freelist.List[[][2]int]
	sweep freelist.List[*kernels.Scratch]
}

// Polys returns a zero-length polygon scratch buffer with capacity at least
// n (growing an older buffer if needed).
func (a *Arena) Polys(n int) []geom.Polygon { return atLeast(a.polys.Get(), n) }

// PutPolys recycles a buffer obtained from Polys.
func (a *Arena) PutPolys(s []geom.Polygon) { putSlice(&a.polys, s) }

// Rects returns a zero-length rectangle scratch buffer with capacity at
// least n.
func (a *Arena) Rects(n int) []geom.Rect { return atLeast(a.rects.Get(), n) }

// PutRects recycles a buffer obtained from Rects.
func (a *Arena) PutRects(s []geom.Rect) { putSlice(&a.rects, s) }

// Pairs returns a zero-length index-pair scratch buffer (nil when the arena
// has none warm; callers append).
func (a *Arena) Pairs() [][2]int { return atLeast(a.pairs.Get(), 0) }

// PutPairs recycles a buffer obtained from Pairs.
func (a *Arena) PutPairs(s [][2]int) { putSlice(&a.pairs, s) }

// Sweep returns a sweep-kernel scratch, warm with whatever column capacity
// its previous rows grew. Concurrent row workers each hold one, so the
// arena keeps as many as the widest fan-out had workers.
func (a *Arena) Sweep() *kernels.Scratch {
	if s := a.sweep.Get(); s != nil {
		return s
	}
	return new(kernels.Scratch)
}

// PutSweep recycles a scratch obtained from Sweep.
func (a *Arena) PutSweep(s *kernels.Scratch) { a.sweep.Put(s) }

// atLeast truncates a recycled slice to length zero, reallocating it when
// its capacity is below n.
func atLeast[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// putSlice recycles s; a slice that never grew is not worth keeping.
func putSlice[E any](l *freelist.List[[]E], s []E) {
	if cap(s) > 0 {
		l.Put(s[:0])
	}
}
