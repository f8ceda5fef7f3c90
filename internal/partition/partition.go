// Package partition implements OpenDRC's adaptive row-based layout
// partition (Section IV-B). The y-extents of layout objects are merged into
// non-overlapping intervals covering the domain — rows — such that objects
// in different rows cannot interact. Merging uses the paper's Algorithm 1: a
// "pigeonhole array" over the discretized domain of unique y-coordinates,
// giving Θ(k + N) time (k merge operations over an N-coordinate domain)
// instead of the Ω(k log k) sort-based alternative, which is also provided
// as an ablation baseline.
package partition

import (
	"math"
	"math/bits"
	"sort"

	"opendrc/internal/geom"
	"opendrc/internal/radix"
)

// Span is a closed interval over discrete domain indices.
type Span struct {
	Lo, Hi int
}

// MergePigeonhole merges the spans into non-overlapping spans covering the
// whole domain [0, n), using the paper's Algorithm 1 verbatim. n is the
// domain size; every span must satisfy 0 <= Lo <= Hi < n. Domain indices not
// covered by any span become singleton output spans — in OpenDRC's use the
// domain consists exactly of span endpoints, so uncovered indices never
// occur and the output equals the merged cover. The returned spans are
// sorted. Cost is Θ(k + N): one constant-time array update per merge, one
// linear scan.
func MergePigeonhole(n int, spans []Span) []Span {
	if n == 0 {
		return nil
	}
	// Pigeonhole array: A[l] holds the furthest right endpoint of any span
	// starting at l, initialized with indices (Algorithm 1 line 1).
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	for _, s := range spans { // line 2-4: A[l] = max(A[l], r)
		if a[s.Lo] < s.Hi {
			a[s.Lo] = s.Hi
		}
	}
	var out []Span
	e := -1 // line 5: current interval end
	start := 0
	for i := 0; i < n; i++ { // line 6-11
		if i > e { // the running interval ended before i
			if e >= 0 {
				out = append(out, Span{start, e})
			}
			start, e = i, i
		}
		if a[i] > e {
			e = a[i]
		}
	}
	return append(out, Span{start, e})
}

// MergeSort is the Ω(k log k) sort-based merge, kept as the ablation
// baseline the paper argues against ("k is typically much larger than N in
// our problems, and arrays usually have a much better locality").
func MergeSort(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	s := append([]Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Lo != s[j].Lo {
			return s[i].Lo < s[j].Lo
		}
		return s[i].Hi < s[j].Hi
	})
	out := []Span{s[0]}
	for _, sp := range s[1:] {
		last := &out[len(out)-1]
		if sp.Lo <= last.Hi { // overlap or touch in index space
			if sp.Hi > last.Hi {
				last.Hi = sp.Hi
			}
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// Row is one partition row: a y-range plus the indices of the input boxes
// assigned to it. Rows are disjoint and sorted by YLo, and — given the guard
// distance used to build them — no design rule with reach ≤ guard can relate
// geometry in different rows.
type Row struct {
	YLo, YHi int64 // extent of member boxes (without the guard)
	Members  []int
}

// Algorithm selects the interval-merging implementation.
type Algorithm int

// Merging algorithm choices.
const (
	Pigeonhole Algorithm = iota // Algorithm 1 (default)
	SortBased                   // ablation baseline
)

// Rows partitions boxes into independent rows. guard is the maximum
// interaction distance of the rules to be checked: each box's y-extent is
// enlarged upward by guard before merging, so boxes with a vertical gap
// smaller than guard always share a row (the paper's rule-distance MBR
// enlargement applied to partitioning). Empty boxes are assigned to no row.
//
// Discretization is one radix sort of the 2k interval endpoints followed by
// linear rank/assignment passes, so the whole partition is linear in k plus
// the Θ(k + N) merge.
func Rows(boxes []geom.Rect, guard int64, alg Algorithm) []Row {
	spans, domain := endpointSpans(boxes, guard)
	if spans == nil {
		return nil
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
	j := 0 // spans[j] is the span of the j-th non-empty box
	for bi, b := range boxes {
		if b.Empty() {
			continue
		}
		row := &rows[rowIdx[spans[j].Lo]]
		j++
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

// endpointSpans discretizes the boxes' y-extents: the domain is the set of
// unique interval endpoints, and the j-th non-empty box's span holds the
// dense ranks of its YLo and guarded YHi. Endpoint positions 2j and 2j+1
// hold those two values; one stable sort of the positions by value, then one
// pass over the sorted order gives each its rank — a new rank wherever the
// value changes. It returns nil spans when no box is non-empty.
//
// The sort runs on words: one per endpoint, its offset from the lowest
// endpoint in the high bits and its position in the low bits, so the words
// sort as contiguous memory and carry their own position. A layer whose y
// span leaves too few bits for the positions (never one of GDSII's int32
// coordinates) sorts the positions by a gathered key instead.
func endpointSpans(boxes []geom.Rect, guard int64) ([]Span, int) {
	n, lo, hi := 0, int64(math.MaxInt64), int64(math.MinInt64)
	for _, b := range boxes {
		if !b.Empty() {
			lo, hi = min(lo, b.YLo), max(hi, b.YHi+guard)
			n += 2
		}
	}
	if n == 0 {
		return nil, 0
	}
	spans := make([]Span, n/2)
	domain := 0
	shift := uint(bits.Len(uint(n - 1)))
	if bits.Len64(uint64(hi-lo))+int(shift) > 64 {
		key := make([]int64, 0, n)
		for _, b := range boxes {
			if !b.Empty() {
				key = append(key, b.YLo, b.YHi+guard)
			}
		}
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		perm, _ = radix.Sort(perm, nil, key)
		for i, p := range perm {
			if i > 0 && key[p] != key[perm[i-1]] {
				domain++
			}
			spans[p/2].set(int(p), domain)
		}
		return spans, domain + 1
	}
	words := make([]uint64, 0, n)
	for _, b := range boxes {
		if !b.Empty() {
			p := uint64(len(words))
			words = append(words, uint64(b.YLo-lo)<<shift|p, uint64(b.YHi+guard-lo)<<shift|(p+1))
		}
	}
	words, _ = radix.SortWords(words, nil, shift)
	mask := uint64(1)<<shift - 1
	for i, w := range words {
		if i > 0 && w>>shift != words[i-1]>>shift {
			domain++
		}
		p := int(w & mask)
		spans[p/2].set(p, domain)
	}
	return spans, domain + 1
}

// set records rank as the span's end held by endpoint position p: its Lo for
// an even position, its Hi for an odd one.
func (s *Span) set(p, rank int) {
	if p&1 == 0 {
		s.Lo = rank
	} else {
		s.Hi = rank
	}
}

// Band is a closed y-interval.
type Band struct {
	Lo, Hi int64
}

// Splice patches a partition in place after a polygon splice instead of
// re-partitioning the layer. bands are the sorted, disjoint y-intervals
// whose geometry was replaced: every row overlapping one is dropped (when
// the bands are unions of rows of a partition with a guard at least this
// one's, those are exactly the rows inside them — a smaller guard only
// splits rows, never joins them across a coarser row's boundary). The
// surviving rows' members are renumbered through remap (the identity below
// first, increasing above it, so members stay ascending), and fresh — the
// partition of the bands' new boxes alone, already in final indices — is
// merged in by YLo. The result equals Rows over the spliced box list.
func Splice(rows []Row, bands []Band, remap []int32, first int, fresh []Row) []Row {
	kept, bi := rows[:0], 0
	for _, r := range rows {
		for bi < len(bands) && bands[bi].Hi < r.YLo {
			bi++
		}
		if bi < len(bands) && bands[bi].Lo <= r.YHi {
			continue
		}
		if r.Members[len(r.Members)-1] >= first {
			for i, m := range r.Members {
				r.Members[i] = int(remap[m])
			}
		}
		kept = append(kept, r)
	}
	n := len(kept)
	out := append(kept, fresh...)
	clear(rows[min(len(out), len(rows)):])
	i, k := n-1, len(out)-1
	for j := len(fresh) - 1; j >= 0; k-- {
		if i >= 0 && out[i].YLo > fresh[j].YLo {
			out[k] = out[i]
			i--
		} else {
			out[k] = fresh[j]
			j--
		}
	}
	return out
}
