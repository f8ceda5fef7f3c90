// Fixture for the lockdiscipline checker. Line numbers are asserted in
// checkers_test.go — append new cases at the end.
package fixture

import "sync"

type table struct {
	mu   sync.Mutex
	free []int //odrc:guardedby mu
}

// TN: lock + deferred unlock covers the whole function.
func (t *table) get() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.free) == 0 {
		return 0
	}
	x := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	return x
}

// TN: the early-return branch unlocks, but that unlock does not leak into
// the fall-through path, which is still under the lock.
func (t *table) put(x int) {
	t.mu.Lock()
	if x < 0 {
		t.mu.Unlock()
		return
	}
	t.free = append(t.free, x)
	t.mu.Unlock()
}

// TN: toggles inside a deferred func literal are tracked lexically.
func (t *table) drain() {
	defer func() {
		t.mu.Lock()
		t.free = nil
		t.mu.Unlock()
	}()
}

// TP: no lock at all (lines 47 and 50).
func (t *table) peek() int {
	if len(t.free) == 0 {
		return 0
	}
	return t.free[0]
}

// TP: the access after the Unlock is no longer covered (line 58).
func (t *table) reset() {
	t.mu.Lock()
	t.free = nil
	t.mu.Unlock()
	t.free = nil
}

// TP: holding a's lock does not license touching b's field (line 64).
func move(a, b *table) {
	a.mu.Lock()
	b.free = nil
	a.mu.Unlock()
}

// Waived access: suppressed, and the waiver is consumed (not stale).
func (t *table) snapshot() []int {
	return t.free //odrc:allow lockdiscipline — fixture: caller tolerates a racy snapshot
}

// Annotation errors are findings themselves (lines 75 and 76).
type badGuard struct {
	n int //odrc:guardedby
	m int //odrc:guardedby nosuch
}

// A generic guarded struct: inside its methods the field is used through
// the instantiation, not the annotated declaration.
type stack[T any] struct {
	mu   sync.Mutex
	free []T //odrc:guardedby mu
}

// TN: the generic method holds the lock.
func (s *stack[T]) push(v T) {
	s.mu.Lock()
	s.free = append(s.free, v)
	s.mu.Unlock()
}

// TP: the generic method forgot the lock (line 95).
func (s *stack[T]) reset() {
	s.free = nil
}

// TP: an access through a concrete instantiation (line 100).
func peekInts(s *stack[int]) int {
	return len(s.free)
}

// TP: an exported guarded field, whose accesses from other packages no
// per-package check can see (line 107).
type Counter struct {
	mu sync.Mutex
	N  int //odrc:guardedby mu
}
