package geocache

import (
	"sync"

	"opendrc/internal/geom"
	"opendrc/internal/kernels"
)

// Arena is the per-run recycled scratch allocator for the host hot paths.
// Each Cache owns one Arena (created with it, sharing its lifetime; the zero
// value is ready to use), which hands out the short-lived buffers
// the flatten/pack/sweep pipeline used to allocate fresh per rule or per
// row: polygon shape lists fed to kernels.Pack, expanded-MBR lists fed to
// the sweepline, candidate-pair lists, and the gathered sweep columns of the
// parallel mode's row simulation.
//
// The freelists are deliberately plain mutex-guarded stacks rather than
// sync.Pool: a sync.Pool's contents are coupled to process history (GC
// victim caches, and under the race detector randomized put drops), which
// makes a run's allocation sequence depend on what ran before it. The
// engine's determinism contract is stronger — repeated identical runs must
// behave identically, down to the goroutine interleavings that allocation
// pacing influences — so all recycling state is owned by the run and
// behaves as a pure function of the run's inputs. Cross-run reuse would buy
// nothing anyway: the arena exists to recycle across the many rules and
// rows *within* one check.
//
// Ownership rules (documented in DESIGN.md §9):
//
//   - Arena buffers are SCRATCH: a caller gets a buffer, fills it, uses it,
//     and puts it back in the same scope. Nothing read from the cache's
//     memoized tables (shared, immutable) may ever be put into the arena.
//   - Buffers may be returned from any goroutine (the freelists are
//     mutex-guarded), so per-row workers can recycle their own scratch.
//   - Contents are garbage after Put. Every Get returns a zero-length slice
//     with whatever capacity a previous user grew; callers append or resize
//     explicitly. Recycling therefore cannot change results, only costs.
type Arena struct {
	mu    sync.Mutex
	polys [][]geom.Polygon   //odrc:guardedby mu
	rects [][]geom.Rect      //odrc:guardedby mu
	pairs [][][2]int         //odrc:guardedby mu
	sweep []*kernels.Scratch //odrc:guardedby mu
}

// Polys returns a zero-length polygon scratch buffer with capacity at least
// n (growing an older buffer if needed).
func (a *Arena) Polys(n int) []geom.Polygon {
	a.mu.Lock()
	var s []geom.Polygon
	if l := len(a.polys); l > 0 {
		s = a.polys[l-1]
		a.polys[l-1] = nil
		a.polys = a.polys[:l-1]
	}
	a.mu.Unlock()
	if cap(s) < n {
		s = make([]geom.Polygon, 0, n)
	}
	return s[:0]
}

// PutPolys recycles a buffer obtained from Polys.
func (a *Arena) PutPolys(s []geom.Polygon) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	a.polys = append(a.polys, s[:0])
	a.mu.Unlock()
}

// Rects returns a zero-length rectangle scratch buffer with capacity at
// least n.
func (a *Arena) Rects(n int) []geom.Rect {
	a.mu.Lock()
	var s []geom.Rect
	if l := len(a.rects); l > 0 {
		s = a.rects[l-1]
		a.rects[l-1] = nil
		a.rects = a.rects[:l-1]
	}
	a.mu.Unlock()
	if cap(s) < n {
		s = make([]geom.Rect, 0, n)
	}
	return s[:0]
}

// PutRects recycles a buffer obtained from Rects.
func (a *Arena) PutRects(s []geom.Rect) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	a.rects = append(a.rects, s[:0])
	a.mu.Unlock()
}

// Pairs returns a zero-length index-pair scratch buffer (nil when the arena
// has none warm; callers append).
func (a *Arena) Pairs() [][2]int {
	a.mu.Lock()
	var s [][2]int
	if l := len(a.pairs); l > 0 {
		s = a.pairs[l-1]
		a.pairs[l-1] = nil
		a.pairs = a.pairs[:l-1]
	}
	a.mu.Unlock()
	if s == nil {
		return nil
	}
	return s[:0]
}

// PutPairs recycles a buffer obtained from Pairs.
func (a *Arena) PutPairs(s [][2]int) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	a.pairs = append(a.pairs, s[:0])
	a.mu.Unlock()
}

// Sweep returns a sweep-kernel scratch, warm with whatever column capacity
// its previous rows grew. Concurrent row workers each hold one, so the
// arena keeps as many as the widest fan-out had workers.
func (a *Arena) Sweep() *kernels.Scratch {
	a.mu.Lock()
	var s *kernels.Scratch
	if l := len(a.sweep); l > 0 {
		s = a.sweep[l-1]
		a.sweep[l-1] = nil
		a.sweep = a.sweep[:l-1]
	}
	a.mu.Unlock()
	if s == nil {
		s = new(kernels.Scratch)
	}
	return s
}

// PutSweep recycles a scratch obtained from Sweep.
func (a *Arena) PutSweep(s *kernels.Scratch) {
	a.mu.Lock()
	a.sweep = append(a.sweep, s)
	a.mu.Unlock()
}
