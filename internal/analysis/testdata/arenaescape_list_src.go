// Fixture for the arenaescape checker's generic freelist, type-checked as
// package internal/freelist: List is matched by its origin's name and
// package, whatever it is instantiated with. Line numbers are asserted in
// checkers_test.go — append new cases at the end.
package fixture

import "sync"

type List[T any] struct {
	mu   sync.Mutex
	free []T //odrc:guardedby mu
}

// TN: the list's own methods are where scratch originates.
func (l *List[T]) Get() T {
	var v T
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v = l.free[n-1]
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v
}

func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

type Buf struct{ n int }

// TN: drawn, used and put back; only a count escapes.
func Use(l *List[*Buf]) int {
	b := l.Get()
	n := b.n
	l.Put(b)
	return n
}

// TP: a pointer from List.Get returned past the exported boundary (line 45).
func LeakPtr(l *List[*Buf]) *Buf {
	b := l.Get()
	return b
}

// TP: a slice instantiation is scratch too (line 50).
func LeakSlice(l *List[[]int]) []int {
	return l.Get()
}

// Arena wraps a List: its methods hand the list's scratch out, which is the
// pool surface, not an escape.
type Arena struct{ bufs List[[]int] }

// TN: a scratch pool's own method.
func (a *Arena) Buf() []int { return a.bufs.Get() }

// TP: the wrapper's scratch still may not leave through an exported
// function (line 63).
func LeakArena(a *Arena) []int {
	return a.Buf()
}

var kept any

// Box is a generic type whose method stores its argument persistently.
type Box[T any] struct{}

func (b *Box[T]) Keep(v T) { kept = v }

// TP: scratch stored through a generic type's method; the callee is the
// instantiated method, whose summary lives on its origin (line 77).
func StoreViaGeneric(l *List[[]int], b *Box[[]int]) {
	s := l.Get()
	b.Keep(s)
}
