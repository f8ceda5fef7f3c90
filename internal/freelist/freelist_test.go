package freelist

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestListLIFO pins the stack order and the zero value on a miss.
func TestListLIFO(t *testing.T) {
	var l List[*int]
	if got := l.Get(); got != nil {
		t.Fatalf("empty Get = %v, want nil", got)
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the most recently put value")
	}
	if got := l.Get(); got != a {
		t.Fatal("second Get did not return the first value")
	}
	if got := l.Get(); got != nil {
		t.Fatalf("drained Get = %v, want nil", got)
	}
}

// TestListConcurrent exercises the contract that any goroutine may Get and
// Put: several goroutines each draw a buffer, fill it with their own mark,
// yield, and verify the mark before putting the buffer back. Two outstanding
// values aliasing would overwrite a mark (and, under -race, report the
// unsynchronized writes).
func TestListConcurrent(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 500
		size       = 64
	)
	var l List[[]int]
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				buf := l.Get()
				if cap(buf) < size {
					buf = make([]int, 0, size)
				}
				buf = buf[:0]
				for i := 0; i < size; i++ {
					buf = append(buf, g)
				}
				runtime.Gosched()
				for i, v := range buf {
					if v != g {
						t.Errorf("goroutine %d: buf[%d] = %d, an outstanding buffer aliases another", g, i, v)
						return
					}
				}
				l.Put(buf)
			}
		}()
	}
	wg.Wait()
	// Every buffer put back is distinct: a later Get never hands one out twice.
	seen := map[*int]bool{}
	for buf := l.Get(); buf != nil; buf = l.Get() {
		p := &buf[:1][0]
		if seen[p] {
			t.Fatal("the list holds the same buffer twice")
		}
		seen[p] = true
	}
	if len(seen) == 0 || len(seen) > goroutines {
		t.Errorf("list holds %d buffers, want 1..%d", len(seen), goroutines)
	}
}

type opaqueOK struct{ buf []int }

func (o *opaqueOK) Len() int                      { return len(o.buf) }
func (o *opaqueOK) Sum() (struct{ N int }, error) { return struct{ N int }{len(o.buf)}, nil }
func (o *opaqueOK) Each(fn func(int))             {}

type exportedField struct{ Buf []int }

type leaksSlice struct{ buf []int }

func (l *leaksSlice) Buf() []int { return l.buf }

type leaksInStruct struct{ buf []int }

func (l leaksInStruct) View() struct{ B []int } { return struct{ B []int }{l.buf} }

// TestOpaque pins the recycling rule: unexported fields, and exported
// methods whose results hold no reference, directly or nested.
func TestOpaque(t *testing.T) {
	if err := Opaque(reflect.TypeOf(opaqueOK{})); err != nil {
		t.Errorf("opaque type rejected: %v", err)
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(exportedField{}),
		reflect.TypeOf(leaksSlice{}),
		reflect.TypeOf(leaksInStruct{}),
	} {
		if Opaque(typ) == nil {
			t.Errorf("%s accepted, want rejected", typ)
		}
	}
}
