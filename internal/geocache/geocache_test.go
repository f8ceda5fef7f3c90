package geocache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"unsafe"

	"opendrc/internal/budget"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/pool"
	"opendrc/internal/synth"
)

func testLayout(t *testing.T) *layout.Layout {
	t.Helper()
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func TestFlattenMemoizedAndShared(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	a, err := c.Flatten(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Flatten(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("second Flatten did not return the shared slice")
	}
	want := lo.FlattenLayer(layout.LayerM1)
	if len(want) != len(a) {
		t.Fatalf("cached flatten has %d polys, direct flatten %d", len(a), len(want))
	}
	s := c.Stats()
	if s.FlattenMisses != 1 || s.FlattenHits != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit", s)
	}
}

func TestPackMemoizedPerLayer(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	e1, err := c.Pack(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Pack(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("second Pack did not return the shared buffer")
	}
	eOther, err := c.Pack(ctx, lo, layout.LayerM2)
	if err != nil {
		t.Fatal(err)
	}
	if eOther == e1 {
		t.Fatal("distinct layers share a packed buffer")
	}
	s := c.Stats()
	if s.FlattenMisses != 2 || s.FlattenHits != 1 {
		t.Fatalf("stats = %+v, want 2 flatten misses / 1 hit", s)
	}
}

func TestErrorCachedOneComputation(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	calls := 0
	sentinel := errors.New("boom")
	c.SetFaultHook(func(ctx context.Context, l layout.Layer) error {
		calls++
		return sentinel
	})
	ctx := context.Background()
	if _, err := c.Flatten(ctx, lo, layout.LayerM1); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, err := c.Flatten(ctx, lo, layout.LayerM1); !errors.Is(err, sentinel) {
		t.Fatalf("cached err = %v, want sentinel", err)
	}
	if _, err := c.Pack(ctx, lo, layout.LayerM1); !errors.Is(err, sentinel) {
		t.Fatalf("Pack err = %v, want the cached flatten error", err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1 (error must be cached)", calls)
	}
}

// TestCancelledJoinNotCached: a Rows whose fill joins a flatten in flight
// and is cancelled while it waits fails with its own cancellation, and a
// later Rows under a live context fills the slot afresh instead of reading
// that cancellation back.
func TestCancelledJoinNotCached(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	started, release := make(chan struct{}), make(chan struct{})
	c.SetFaultHook(func(ctx context.Context, l layout.Layer) error {
		close(started)
		<-release
		return nil
	})
	done := make(chan error)
	go func() {
		_, err := c.Pack(context.Background(), lo, layout.LayerM1)
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Rows(ctx, lo, layout.LayerM1, 18, partition.Pigeonhole); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rows joined under a cancelled context: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rows, err := c.Rows(context.Background(), lo, layout.LayerM1, 18, partition.Pigeonhole)
	if err != nil {
		t.Fatalf("Rows after the cancelled one: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("Rows after the cancelled one is empty")
	}
}

func TestBudgetTripCached(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{MaxFlattenPolys: 1})
	ctx := context.Background()
	_, err := c.Flatten(ctx, lo, layout.LayerM1)
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("err = %v, want budget.ErrExceeded", err)
	}
	_, err2 := c.Pack(ctx, lo, layout.LayerM1)
	if !errors.Is(err2, budget.ErrExceeded) {
		t.Fatalf("Pack err = %v, want the cached budget error", err2)
	}
}

func TestPanicCachedAsPanicError(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	calls := 0
	c.SetFaultHook(func(ctx context.Context, l layout.Layer) error {
		calls++
		panic("kaboom")
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		_, err := c.Flatten(ctx, lo, layout.LayerM1)
		var pe *pool.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("call %d: err = %v, want *pool.PanicError", i, err)
		}
		if pe.Value != "kaboom" {
			t.Fatalf("panic value = %v", pe.Value)
		}
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1 (panic must be cached)", calls)
	}
}

func TestSingleFlightConcurrent(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	var mu sync.Mutex
	computes := 0
	c.SetFaultHook(func(ctx context.Context, l layout.Layer) error {
		mu.Lock()
		computes++
		mu.Unlock()
		return nil
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Pack(ctx, lo, layout.LayerM1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("flatten computed %d times under concurrency, want 1", computes)
	}
	s := c.Stats()
	if s.FlattenMisses != 1 || s.FlattenHits != 7 {
		t.Fatalf("stats = %+v, want exactly 1 flatten miss and 7 hits", s)
	}
}

func TestMBRsAndRowsMatchDirectComputation(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	boxes, err := c.MBRs(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	polys := lo.FlattenLayer(layout.LayerM1)
	if len(boxes) != len(polys) {
		t.Fatalf("%d boxes for %d polys", len(boxes), len(polys))
	}
	for i := range polys {
		if boxes[i] != polys[i].Shape.MBR() {
			t.Fatalf("box %d = %+v, want %+v", i, boxes[i], polys[i].Shape.MBR())
		}
	}
	const guard = 18
	rows, err := c.Rows(ctx, lo, layout.LayerM1, guard, partition.Pigeonhole)
	if err != nil {
		t.Fatal(err)
	}
	want := partition.Rows(boxes, guard, partition.Pigeonhole)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i := range rows {
		if len(rows[i].Members) != len(want[i].Members) {
			t.Fatalf("row %d has %d members, want %d", i, len(rows[i].Members), len(want[i].Members))
		}
	}
	again, err := c.Rows(ctx, lo, layout.LayerM1, guard, partition.Pigeonhole)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 0 && &rows[0] != &again[0] {
		t.Fatal("second Rows did not return the shared partition")
	}
}

func TestTableMatchesMBRs(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	tab, err := c.Table(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := c.MBRs(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Boxes) != len(boxes) || len(tab.XOrder) != len(boxes) {
		t.Fatalf("table sizes %d/%d, want %d", len(tab.Boxes), len(tab.XOrder), len(boxes))
	}
	if len(boxes) > 0 && &tab.Boxes[0] != &boxes[0] {
		t.Fatal("the table copied the cached MBRs instead of sharing them")
	}
	for k := 1; k < len(tab.XOrder); k++ {
		a, b := boxes[tab.XOrder[k-1]], boxes[tab.XOrder[k]]
		if a.XLo > b.XLo || (a.XLo == b.XLo && tab.XOrder[k-1] >= tab.XOrder[k]) {
			t.Fatalf("XOrder not sorted by (XLo, index) at %d", k)
		}
	}
	again, err := c.Table(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	if again != tab {
		t.Fatal("second Table did not return the shared table")
	}
}

func TestOneCacheOneLayout(t *testing.T) {
	lo := testLayout(t)
	lo2, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c := New(budget.Limits{})
	ctx := context.Background()
	if _, err := c.Flatten(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("binding a second layout did not panic")
		}
	}()
	_, _ = c.Flatten(ctx, lo2, layout.LayerM1)
}

func TestEventHookMultiset(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	var got []Event
	c.SetEventHook(func(ev Event) { got = append(got, ev) })
	// Pack is the flatten lookup and misses; a Rows miss derives the
	// partition from a flatten lookup of its own, which hits; MBRs and a
	// second Pack are the same lookup and hit.
	if _, err := c.Pack(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rows(ctx, lo, layout.LayerM1, 18, partition.Pigeonhole); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MBRs(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pack(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Op: "flatten", Key: "layer#19", Hit: false},
		{Op: "rows", Key: "layer#19/reach=18/alg=0", Hit: false},
		{Op: "flatten", Key: "layer#19", Hit: true},
		{Op: "flatten", Key: "layer#19", Hit: true},
		{Op: "flatten", Key: "layer#19", Hit: true},
	}
	if len(got) != len(want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestInvalidateScoped(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	for _, l := range []layout.Layer{layout.LayerM1, layout.LayerM2} {
		if _, err := c.Pack(ctx, lo, l); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Rows(ctx, lo, l, 40, partition.Pigeonhole); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Table(ctx, lo, l); err != nil {
			t.Fatal(err)
		}
	}
	s0 := c.Stats()

	// Invalidating M1 forces M1 (and only M1) to recompute.
	c.Invalidate(layout.LayerM1)
	if _, err := c.Pack(ctx, lo, layout.LayerM2); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.FlattenMisses != s0.FlattenMisses {
		t.Fatalf("M2 recomputed after invalidating M1: %+v vs %+v", s, s0)
	}
	a, err := c.Flatten(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.FlattenMisses != s0.FlattenMisses+1 {
		t.Fatalf("M1 flatten not recomputed after Invalidate: %+v vs %+v", s, s0)
	}
	if len(a) == 0 || len(a) != len(lo.FlattenLayer(layout.LayerM1)) {
		t.Fatal("recomputed flatten is wrong")
	}
	// The rows and table entries keyed on M1 were dropped too.
	if _, err := c.Rows(ctx, lo, layout.LayerM1, 40, partition.Pigeonhole); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}

	// Invalidate with no layers drops everything.
	s1 := c.Stats()
	c.Invalidate()
	if _, err := c.Pack(ctx, lo, layout.LayerM2); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.FlattenMisses != s1.FlattenMisses+1 {
		t.Fatalf("full Invalidate left entries cached: %+v vs %+v", s, s1)
	}
}

func TestInvalidateClearsCachedError(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{MaxFlattenPolys: 1})
	ctx := context.Background()
	if _, err := c.Flatten(ctx, lo, layout.LayerM1); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("flatten under a 1-poly budget = %v, want budget error", err)
	}
	// The error is cached; Invalidate drops it like any entry, so a (notional)
	// corrected configuration would recompute rather than replay the failure.
	c.Invalidate(layout.LayerM1)
	if _, err := c.Flatten(ctx, lo, layout.LayerM1); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("recompute = %v, want a fresh budget error", err)
	}
	if s := c.Stats(); s.FlattenMisses != 2 {
		t.Fatalf("invalidated error entry was not recomputed: %+v", s)
	}
}

// TestResidentBytes: the packed buffer costs 16 B per edge and 4 B per
// PolyStart entry, the boxes 32 B each, and a table its x-order alone — its
// boxes are the cached MBRs, counted once. A layer the engine's lookups
// filled holds no instance records; Flatten builds them, sharing the packed
// buffer's vertices, so they hold 72 B a polygon.
func TestResidentBytes(t *testing.T) {
	lo := testLayout(t)
	c := New(budget.Limits{})
	ctx := context.Background()
	if r := c.Resident(); r != (Resident{}) {
		t.Fatalf("empty cache holds %+v", r)
	}
	edges, err := c.Pack(ctx, lo, layout.LayerM1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rows(ctx, lo, layout.LayerM1, 18, partition.Pigeonhole); err != nil {
		t.Fatal(err)
	}
	n := int64(edges.NumPolys())
	r := c.Resident()
	if want := 16*int64(edges.Len()) + 4*(n+1); r.Edges != want {
		t.Errorf("edges hold %d B, want %d", r.Edges, want)
	}
	if r.Boxes != 32*n || r.Tables != 4*n {
		t.Errorf("boxes/tables hold %d/%d B, want %d/%d", r.Boxes, r.Tables, 32*n, 4*n)
	}
	if r.Flatten != 0 {
		t.Errorf("flatten holds %d B after Pack, Table and Rows, want 0", r.Flatten)
	}
	if r.Rows <= 0 {
		t.Errorf("rows hold %d B", r.Rows)
	}
	if r.Total() != r.Flatten+r.Boxes+r.Edges+r.Tables+r.Rows {
		t.Error("Total is not the sum of the kinds")
	}
	if _, err := c.Flatten(ctx, lo, layout.LayerM1); err != nil {
		t.Fatal(err)
	}
	r2 := c.Resident()
	if want := n * int64(unsafe.Sizeof(layout.PlacedPoly{})); unsafe.Sizeof(layout.PlacedPoly{}) != 72 || r2.Flatten != want {
		t.Errorf("flatten holds %d B after Flatten, want %d (72 B records alone)", r2.Flatten, want)
	}
	if r2.Edges != r.Edges || r2.Boxes != r.Boxes {
		t.Errorf("refill with records holds edges/boxes %d/%d B, want %d/%d", r2.Edges, r2.Boxes, r.Edges, r.Boxes)
	}
}
