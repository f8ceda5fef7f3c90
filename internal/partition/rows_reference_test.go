package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"opendrc/internal/geom"
)

// rowsReference is Rows as it stood before its endpoints were ranked by the
// radix sort: slices.Sort and slices.Compact of the bare endpoint values,
// then two binary searches per box. Rows must return exactly its rows.
// Rows partitions boxes into independent rows. guard is the maximum
// interaction distance of the rules to be checked: each box's y-extent is
// enlarged upward by guard before merging, so boxes with a vertical gap
// smaller than guard always share a row (the paper's rule-distance MBR
// enlargement applied to partitioning). Empty boxes are assigned to no row.
//
// Discretization uses one sort of the 2k interval endpoints followed by
// linear rank/assignment passes, so the whole partition is a single
// O(k log k) sort plus the Θ(k + N) merge.
func rowsReference(boxes []geom.Rect, guard int64, alg Algorithm) []Row {
	// Discretize: domain = unique interval endpoints. Sorting the bare
	// values (slices.Sort's specialized int64 path — no comparator calls,
	// no struct swaps) and ranking each box endpoint by binary search in
	// the compacted result produces exactly the ranks the old
	// endpoint-record sort did, at a fraction of the cost; this sort is
	// the hottest host instruction stream of the partition phase.
	vals := make([]int64, 0, 2*len(boxes))
	for _, b := range boxes {
		if b.Empty() {
			continue
		}
		vals = append(vals, b.YLo, b.YHi+guard)
	}
	if len(vals) == 0 {
		return nil
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	domain := len(vals)
	spanLo := make([]int32, len(boxes))
	spanHi := make([]int32, len(boxes))
	for bi, b := range boxes {
		if b.Empty() {
			continue
		}
		lo, _ := slices.BinarySearch(vals, b.YLo)
		hi, _ := slices.BinarySearch(vals, b.YHi+guard)
		spanLo[bi] = int32(lo)
		spanHi[bi] = int32(hi)
	}

	spans := make([]Span, 0, len(boxes))
	for bi, b := range boxes {
		if b.Empty() {
			continue
		}
		spans = append(spans, Span{int(spanLo[bi]), int(spanHi[bi])})
	}

	var merged []Span
	if alg == SortBased {
		merged = MergeSort(spans)
	} else {
		merged = MergePigeonhole(domain, spans)
	}

	// rowIdx maps every domain rank to its row — O(N) once, O(1) per box.
	rowIdx := make([]int32, domain)
	for ri, sp := range merged {
		for i := sp.Lo; i <= sp.Hi && i < domain; i++ {
			rowIdx[i] = int32(ri)
		}
	}
	rows := make([]Row, len(merged))
	for i := range rows {
		rows[i].YLo = int64(1)<<62 - 1
		rows[i].YHi = -(int64(1)<<62 - 1)
	}
	for bi, b := range boxes {
		if b.Empty() {
			continue
		}
		row := &rows[rowIdx[spanLo[bi]]]
		row.Members = append(row.Members, bi)
		if b.YLo < row.YLo {
			row.YLo = b.YLo
		}
		if b.YHi > row.YHi {
			row.YHi = b.YHi
		}
	}
	// Drop rows with no members (possible when guard expansion created
	// coordinate entries that ended up inside another row's span).
	out := rows[:0]
	for _, r := range rows {
		if len(r.Members) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// TestRowsMatchesReference holds Rows to rowsReference on random boxes —
// empty and duplicate ones, ties between guarded tops and bottoms, negative
// and far-apart coordinates — under both merge algorithms.
func TestRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		spread := []int64{50, 2000, 1 << 40}[trial%3]
		bs := make([]geom.Rect, n)
		for i := range bs {
			switch rng.Intn(12) {
			case 0:
				bs[i] = geom.EmptyRect()
				continue
			case 1:
				if i > 0 {
					bs[i] = bs[i-1]
					continue
				}
			}
			lo := rng.Int63n(spread) - spread/2
			bs[i] = geom.R(0, lo, 10, lo+rng.Int63n(120))
		}
		guard := rng.Int63n(40)
		for _, alg := range []Algorithm{Pigeonhole, SortBased} {
			if got, want := Rows(bs, guard, alg), rowsReference(bs, guard, alg); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d alg %d: rows %+v, reference %+v", trial, alg, got, want)
			}
		}
	}
}
