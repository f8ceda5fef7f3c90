// Package freelist is the engine's one recycling primitive: a
// mutex-guarded LIFO stack of reusable values. The geometry cache's arena
// (geocache.Arena), the engine's fan-out shard tables and its sweepline
// scratch all recycle through it.
package freelist

import "sync"

// List is a freelist of recycled values, owned by whoever runs the many
// rules or rows that reuse them (an engine, a geometry cache). The zero
// value is an empty list ready to use, and any goroutine may Get and Put.
// Values are scratch (DESIGN.md §9, enforced by odrc-lint's arenaescape):
// got, filled, used and put back in one scope, never kept by a report or a
// cache table.
//
// It is deliberately not a sync.Pool: a sync.Pool's contents are coupled to
// process history (GC victim caches, and under the race detector randomized
// put drops), which makes a run's allocation sequence depend on what ran
// before it. The engine's determinism contract is stronger — repeated
// identical runs must behave identically, down to the goroutine
// interleavings that allocation pacing influences — so all recycling state
// is owned by the run and behaves as a pure function of the run's inputs.
// Cross-run reuse would buy nothing anyway: the lists exist to recycle
// across the many rules and rows within one check.
type List[T any] struct {
	mu   sync.Mutex
	free []T //odrc:guardedby mu
}

// Get pops the most recently put value, or returns T's zero value when the
// list is empty; callers allocate (or grow) on a miss.
func (l *List[T]) Get() T {
	var v, zero T
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v = l.free[n-1]
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v
}

// Put recycles v for a later Get. The caller must not use v afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
