package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"opendrc/internal/geom"
)

func eqSpans(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMergePigeonholeBasic(t *testing.T) {
	// Domain 0..5; spans chain 0-2, 1-3 and a separate 4-5.
	got := MergePigeonhole(6, []Span{{0, 2}, {1, 3}, {4, 5}})
	want := []Span{{0, 3}, {4, 5}}
	if !eqSpans(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMergePigeonholeTouching(t *testing.T) {
	// Spans sharing an endpoint merge into one row.
	got := MergePigeonhole(5, []Span{{0, 2}, {2, 4}})
	if !eqSpans(got, []Span{{0, 4}}) {
		t.Errorf("got %v", got)
	}
}

func TestMergePigeonholeEmpty(t *testing.T) {
	if got := MergePigeonhole(0, nil); got != nil {
		t.Errorf("n=0 -> %v", got)
	}
	// No spans: every index is its own singleton cover.
	got := MergePigeonhole(3, nil)
	if !eqSpans(got, []Span{{0, 0}, {1, 1}, {2, 2}}) {
		t.Errorf("got %v", got)
	}
}

func TestMergeSortBasic(t *testing.T) {
	got := MergeSort([]Span{{4, 5}, {1, 3}, {0, 2}})
	if !eqSpans(got, []Span{{0, 3}, {4, 5}}) {
		t.Errorf("got %v", got)
	}
	if MergeSort(nil) != nil {
		t.Error("MergeSort(nil) != nil")
	}
}

// TestMergeAlgorithmsAgree checks the paper's two interval-merging
// implementations produce identical covers when the domain is exactly the
// set of span endpoints (OpenDRC's usage).
func TestMergeAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(40)
		// Generate spans over an endpoint-only domain: pick endpoint pairs
		// from a small universe, then compress.
		raw := make([][2]int64, k)
		for i := range raw {
			lo := int64(rng.Intn(60))
			hi := lo + int64(rng.Intn(20))
			raw[i] = [2]int64{lo, hi}
		}
		seen := map[int64]bool{}
		var coords []int64
		for _, p := range raw {
			for _, c := range p {
				if !seen[c] {
					seen[c] = true
					coords = append(coords, c)
				}
			}
		}
		// Sort-compress.
		for i := 1; i < len(coords); i++ {
			for j := i; j > 0 && coords[j] < coords[j-1]; j-- {
				coords[j], coords[j-1] = coords[j-1], coords[j]
			}
		}
		index := map[int64]int{}
		for i, c := range coords {
			index[c] = i
		}
		spans := make([]Span, k)
		for i, p := range raw {
			spans[i] = Span{index[p[0]], index[p[1]]}
		}
		a := MergePigeonhole(len(coords), spans)
		b := MergeSort(spans)
		if !eqSpans(a, b) {
			t.Fatalf("trial %d: pigeonhole %v != sort %v (spans %v)", trial, a, b, spans)
		}
	}
}

func boxes(ys ...[2]int64) []geom.Rect {
	out := make([]geom.Rect, len(ys))
	for i, y := range ys {
		out[i] = geom.R(0, y[0], 100, y[1])
	}
	return out
}

func TestRowsIndependent(t *testing.T) {
	// Three clear rows of standard cells with 20-unit gaps.
	bs := boxes([2]int64{0, 100}, [2]int64{0, 100}, [2]int64{120, 220}, [2]int64{240, 340})
	rows := Rows(bs, 0, Pigeonhole)
	if len(rows) != 3 {
		t.Fatalf("rows = %d: %+v", len(rows), rows)
	}
	if len(rows[0].Members) != 2 || len(rows[1].Members) != 1 || len(rows[2].Members) != 1 {
		t.Errorf("membership: %+v", rows)
	}
	if rows[0].YLo != 0 || rows[0].YHi != 100 {
		t.Errorf("row0 extent = [%d,%d]", rows[0].YLo, rows[0].YHi)
	}
	// Rows must be disjoint and ordered.
	for i := 1; i < len(rows); i++ {
		if rows[i].YLo <= rows[i-1].YHi {
			t.Errorf("rows %d,%d overlap", i-1, i)
		}
	}
}

func TestRowsGuard(t *testing.T) {
	// Gap of 20 between the two groups; guard 30 must merge them, guard 10
	// must not. (The guard is the rule interaction distance.)
	bs := boxes([2]int64{0, 100}, [2]int64{120, 220})
	if rows := Rows(bs, 10, Pigeonhole); len(rows) != 2 {
		t.Errorf("guard 10: rows = %d", len(rows))
	}
	if rows := Rows(bs, 30, Pigeonhole); len(rows) != 1 {
		t.Errorf("guard 30: rows = %d", len(rows))
	}
	// Exactly-equal gap: box gap 20, guard 20 ⇒ a.YHi+guard == b.YLo, the
	// intervals touch, and touching merges (conservative: distance exactly
	// equal to the rule value is usually legal, but merging is safe).
	if rows := Rows(bs, 20, Pigeonhole); len(rows) != 1 {
		t.Errorf("guard 20: rows = %d", len(rows))
	}
}

func TestRowsOverlappingCells(t *testing.T) {
	// Overlapping y-extents must always share a row.
	bs := boxes([2]int64{0, 100}, [2]int64{50, 150}, [2]int64{140, 200})
	rows := Rows(bs, 0, Pigeonhole)
	if len(rows) != 1 || len(rows[0].Members) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].YLo != 0 || rows[0].YHi != 200 {
		t.Errorf("extent = [%d,%d]", rows[0].YLo, rows[0].YHi)
	}
}

func TestRowsEmptyAndDegenerate(t *testing.T) {
	if rows := Rows(nil, 0, Pigeonhole); rows != nil {
		t.Errorf("nil boxes -> %v", rows)
	}
	bs := []geom.Rect{geom.EmptyRect(), geom.R(0, 0, 10, 10)}
	rows := Rows(bs, 0, Pigeonhole)
	if len(rows) != 1 || len(rows[0].Members) != 1 || rows[0].Members[0] != 1 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestRowsSortBasedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		bs := make([]geom.Rect, n)
		for i := range bs {
			lo := int64(rng.Intn(1000))
			bs[i] = geom.R(0, lo, 10, lo+int64(rng.Intn(120)))
		}
		guard := int64(rng.Intn(50))
		a := Rows(bs, guard, Pigeonhole)
		b := Rows(bs, guard, SortBased)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d rows vs %d rows", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].YLo != b[i].YLo || a[i].YHi != b[i].YHi || len(a[i].Members) != len(b[i].Members) {
				t.Fatalf("trial %d row %d differs: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

// TestRowsCompleteAndDisjointProperty: every non-empty box lands in exactly
// one row, and rows separated by more than the guard cannot contain boxes
// within guard distance of each other.
func TestRowsCompleteAndDisjointProperty(t *testing.T) {
	f := func(seeds []uint16, guardRaw uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		guard := int64(guardRaw % 64)
		bs := make([]geom.Rect, len(seeds))
		for i, s := range seeds {
			lo := int64(s % 2048)
			bs[i] = geom.R(0, lo, 10, lo+int64(s%97))
		}
		rows := Rows(bs, guard, Pigeonhole)
		assigned := map[int]int{}
		for ri, r := range rows {
			for _, m := range r.Members {
				if _, dup := assigned[m]; dup {
					return false // box in two rows
				}
				assigned[m] = ri
			}
		}
		if len(assigned) != len(bs) {
			return false // box lost
		}
		// Cross-row independence: any two boxes in different rows are
		// separated by more than the guard in y.
		for i, bi := range bs {
			for j, bj := range bs {
				if i >= j || assigned[i] == assigned[j] {
					continue
				}
				_, dy := bi.Distance(bj)
				overlapY := bi.YLo <= bj.YHi && bj.YLo <= bi.YHi
				if overlapY || dy <= guard {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSpliceMatchesRows replaces the geometry of one band — a row goes, its
// neighbour loses a box and splits — and requires the spliced partition to
// equal a cold one of the spliced box list, for the segmenting guard and a
// finer one.
func TestSpliceMatchesRows(t *testing.T) {
	boxes := []geom.Rect{
		geom.R(0, 0, 10, 100),     // row A
		geom.R(0, 1000, 10, 1100), // row B: a chain of three, 20 apart
		geom.R(0, 2000, 10, 2100), // row C
		geom.R(0, 1120, 10, 1220),
		geom.R(0, 1240, 10, 1340),
		geom.R(0, 3000, 10, 3100), // row D
	}
	// Rows B and C are dirty: box 3 (the chain's middle) and box 2 leave, the
	// rest of B is re-queried to the tail with one new box in a former gap.
	remap := []int32{0, -1, -1, -1, -1, 1}
	fresh := []geom.Rect{boxes[1], boxes[4], geom.R(0, 2500, 10, 2600)}
	after := append([]geom.Rect{boxes[0], boxes[5]}, fresh...)
	bands := []Band{{1000, 2600}}
	for _, guard := range []int64{50, 10} {
		rows := Rows(boxes, guard, Pigeonhole)
		add := Rows(fresh, guard, Pigeonhole)
		for _, r := range add {
			for i := range r.Members {
				r.Members[i] += 2
			}
		}
		got := Splice(rows, bands, remap, 1, add)
		if want := Rows(after, guard, Pigeonhole); !reflect.DeepEqual(got, want) {
			t.Fatalf("guard %d: spliced rows %+v, cold rows %+v", guard, got, want)
		}
	}
}

// TestRowsMembersExactCapacity: every row's member list is capped at its
// length, so an append to one row moves it out instead of writing into the
// row after it (all lists are carved from one array).
func TestRowsMembersExactCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 50; trial++ {
		bs := make([]geom.Rect, 1+rng.Intn(300))
		for i := range bs {
			lo := rng.Int63n(5000)
			bs[i] = geom.R(0, lo, 10, lo+1+rng.Int63n(60))
		}
		for _, alg := range []Algorithm{Pigeonhole, SortBased} {
			rows := Rows(bs, rng.Int63n(30), alg)
			for ri, r := range rows {
				if cap(r.Members) != len(r.Members) {
					t.Fatalf("trial %d alg %d row %d: %d members, capacity %d", trial, alg, ri, len(r.Members), cap(r.Members))
				}
			}
			if len(rows) > 1 {
				next := rows[1].Members[0]
				_ = append(rows[0].Members, -1)
				if rows[1].Members[0] != next {
					t.Fatalf("trial %d alg %d: an append to row 0 wrote into row 1", trial, alg)
				}
			}
		}
	}
}
