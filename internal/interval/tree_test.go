package interval

import (
	"math/rand"
	"sort"
	"testing"
)

func collect(t *Tree, lo, hi int64) []int {
	var ids []int
	t.Query(lo, hi, func(e Entry) { ids = append(ids, e.ID) })
	sort.Ints(ids)
	return ids
}

func eqInts(a, b []int) bool {
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

func TestInsertQueryBasic(t *testing.T) {
	tr := NewTree([]int64{0, 5, 10, 15, 20, 25, 30},
		[]Entry{{0, 10, 1}, {5, 15, 2}, {20, 30, 3}, {10, 20, 4}})
	must := func(i int) {
		t.Helper()
		if err := tr.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	must(0)
	must(1)
	must(2)
	must(3)
	if tr.Len() != 4 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := collect(tr, 0, 4); !eqInts(got, []int{1}) {
		t.Errorf("query [0,4] = %v", got)
	}
	if got := collect(tr, 7, 12); !eqInts(got, []int{1, 2, 4}) {
		t.Errorf("query [7,12] = %v", got)
	}
	if got := collect(tr, 16, 19); !eqInts(got, []int{4}) {
		t.Errorf("query [16,19] = %v", got)
	}
	// Touching endpoints count as overlap.
	if got := collect(tr, 15, 15); !eqInts(got, []int{2, 4}) {
		t.Errorf("query [15,15] = %v", got)
	}
	if got := collect(tr, 30, 40); !eqInts(got, []int{3}) {
		t.Errorf("query [30,40] = %v", got)
	}
	if got := collect(tr, 31, 40); len(got) != 0 {
		t.Errorf("query [31,40] = %v", got)
	}
}

func TestDelete(t *testing.T) {
	tr := NewTree([]int64{0, 10, 20}, []Entry{
		{0, 10, 1},
		{0, 10, 2}, // identical interval, distinct id
		{5, 20, 3},
		{0, 10, 99}, // never inserted
	})
	tr.Insert(0)
	tr.Insert(1)
	tr.Insert(2)
	if !tr.Delete(0) {
		t.Fatal("delete(1) failed")
	}
	if tr.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	if tr.Delete(3) {
		t.Fatal("deleting unknown id succeeded")
	}
	if got := collect(tr, 0, 20); !eqInts(got, []int{2, 3}) {
		t.Errorf("after delete: %v", got)
	}
	if tr.Len() != 2 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestErrors(t *testing.T) {
	tr := NewTree([]int64{10, 20}, []Entry{{30, 40, 1}, {20, 10, 2}})
	if err := tr.Insert(0); err == nil {
		t.Error("expected error: interval misses skeleton")
	}
	if err := tr.Insert(1); err == nil {
		t.Error("expected error: inverted interval")
	}
	empty := NewTree(nil, []Entry{{0, 1, 1}})
	if err := empty.Insert(0); err == nil {
		t.Error("expected error on empty skeleton")
	}
	empty.Query(0, 10, func(Entry) { t.Error("query on empty tree visited something") })
}

// TestRandomizedAgainstBruteForce cross-checks queries and deletions against
// a naive list over many random operations.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const domain = 200
	coords := make([]int64, domain+1)
	for i := range coords {
		coords[i] = int64(i)
	}
	// The tree is built for its interval set, so the intervals are drawn
	// up front, one per step (more than the inserts can use).
	const steps = 3000
	ivs := make([]Entry, steps)
	for i := range ivs {
		lo := int64(rng.Intn(domain))
		ivs[i] = Entry{Lo: lo, Hi: lo + int64(rng.Intn(domain-int(lo)+1)), ID: i}
	}
	tr := NewTree(coords, ivs)
	type iv struct{ lo, hi int64 }
	live := map[int]iv{}
	nextID := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			lo, hi := ivs[nextID].Lo, ivs[nextID].Hi
			if err := tr.Insert(nextID); err != nil {
				t.Fatal(err)
			}
			live[nextID] = iv{lo, hi}
			nextID++
		case op < 7: // delete random live
			for id := range live {
				if !tr.Delete(id) {
					t.Fatalf("delete live id %d failed", id)
				}
				delete(live, id)
				break
			}
		default: // query
			lo := int64(rng.Intn(domain))
			hi := lo + int64(rng.Intn(domain-int(lo)+1))
			var want []int
			for id, v := range live {
				if v.lo <= hi && lo <= v.hi {
					want = append(want, id)
				}
			}
			sort.Ints(want)
			if got := collect(tr, lo, hi); !eqInts(got, want) {
				t.Fatalf("step %d query [%d,%d]: got %v want %v", step, lo, hi, got, want)
			}
		}
	}
	if tr.Len() != len(live) {
		t.Errorf("len = %d, want %d", tr.Len(), len(live))
	}
}
