// Package freelist is the engine's one recycling primitive: a
// mutex-guarded LIFO stack of reusable values. The engine recycles exactly
// two working sets through it, one per row worker: the sequential
// sweepline's *sweep.Scratch and the parallel sweep executor's
// *kernels.Scratch.
//
// The rule for what may be recycled: only a type whose fields are all
// unexported and whose exported methods return values — no slice, map,
// pointer, channel or func results. Such a type's buffers cannot escape into
// a caller's hands, so no report or cache can keep memory that a later Get
// rewrites, and no checker is needed to prove it; each recycled type holds
// itself to the rule with a test that calls Opaque. Anything
// else — plain slices, output tables — is a buffer owned by its loop or a
// plain allocation.
package freelist

import (
	"fmt"
	"reflect"
	"sync"
)

// List is a freelist of recycled values, owned by whoever runs the many
// rules or rows that reuse them (an engine). The zero value is an empty list
// ready to use, and any goroutine may Get and Put. Values are scratch
// (DESIGN.md §9): got, used and put back in one scope.
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

// Opaque reports why values of struct type t may not be recycled, or nil
// when they may: t has an exported field, or an exported method of t or *t
// has a result that can alias memory — a slice, map, pointer, channel, func
// or interface (error excepted), directly or inside a struct or array.
func Opaque(t reflect.Type) error {
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			return fmt.Errorf("%s has exported field %s", t, f.Name)
		}
	}
	pt := reflect.PointerTo(t)
	for i := 0; i < pt.NumMethod(); i++ {
		m := pt.Method(i)
		for k := 0; k < m.Type.NumOut(); k++ {
			if out := m.Type.Out(k); holdsRef(out) {
				return fmt.Errorf("%s.%s returns %s, which can alias its buffers", pt, m.Name, out)
			}
		}
	}
	return nil
}

var errorType = reflect.TypeOf((*error)(nil)).Elem()

// holdsRef reports whether a value of type t can carry a reference.
func holdsRef(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Interface:
		return t != errorType
	case reflect.Array:
		return holdsRef(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRef(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
