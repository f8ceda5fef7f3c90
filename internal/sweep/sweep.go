// Package sweep implements the rectangle-intersection-report sweepline of
// OpenDRC's sequential mode (Section IV-D): a conceptual horizontal line
// moves from top to bottom across the plane; when the top side of an MBR is
// reached its x-interval is inserted into an interval tree and queried for
// everything it overlaps, and when the bottom side is reached the interval
// is removed. All overlapping MBR pairs are reported exactly once.
package sweep

import (
	"fmt"

	"opendrc/internal/geom"
	"opendrc/internal/interval"
	"opendrc/internal/radix"
)

// Pair is an overlapping rectangle pair, reported with A < B.
type Pair struct {
	A, B int
}

// Stats reports sweepline work for profiling and tests.
type Stats struct {
	Events       int // top/bottom events processed
	MaxLive      int // peak interval-tree occupancy
	PairsFound   int
	TreeQueries  int
	NodesVisited int // interval-tree nodes the queries entered
}

// Scratch holds the per-sweep buffers: the boxes' x-intervals and skeleton
// keys, the event order, and the interval tree with its node list and slabs;
// for SweepRow also the row's expanded boxes and the pairs it kept. Sweeps
// run once per partition row per rule, so callers on that hot path recycle a
// Scratch (the engine keeps a freelist.List of them) instead of reallocating
// the buffers for every row; contents are fully rewritten before use, so
// recycling cannot affect results. Its fields are unexported and its
// methods return values only, so nothing a caller holds can alias the
// buffers a later user rewrites. The zero value is ready to use; one Scratch
// serves one sweep at a time.
type Scratch struct {
	ivs    []interval.Entry // x-interval of each non-empty box, ID its box index
	coords []int64          // the tree's skeleton keys: every x-endpoint
	// Event e < n is the top side of ivs[e], event n+e its bottom side;
	// key is the sort key ^y, which orders y descending without overflow.
	key         []int64
	perm, spare []int32 // the events in sweep order, and the sort's spare buffer
	tree        interval.Tree

	rowBoxes []geom.Rect // SweepRow's member boxes, expanded by the reach
	pairs    [][2]int    // SweepRow's overlapping pairs, as raw indices
}

// Overlaps reports every pair of rectangles that overlap or touch, invoking
// fn once per pair with indices (a < b). Empty rectangles never interact.
// The returned error reports a corrupted sweep state (an interval endpoint
// missing from the skeleton — unreachable by construction but propagated
// rather than panicking, per the failure-semantics policy in DESIGN.md).
func Overlaps(boxes []geom.Rect, fn func(a, b int)) (Stats, error) {
	return new(Scratch).Overlaps(boxes, fn)
}

// Overlaps is the package function on sc's recycled buffers.
func (sc *Scratch) Overlaps(boxes []geom.Rect, fn func(a, b int)) (Stats, error) {
	var st Stats
	ivs, coords := sc.ivs[:0], sc.coords[:0]
	for i, b := range boxes {
		if b.Empty() {
			continue
		}
		ivs = append(ivs, interval.Entry{Lo: b.XLo, Hi: b.XHi, ID: i})
		coords = append(coords, b.XLo, b.XHi)
	}
	sc.ivs, sc.coords = ivs, coords
	n := len(ivs)
	key, perm := grow(sc.key, 2*n), grow(sc.perm, 2*n)
	for e, iv := range ivs {
		b := &boxes[iv.ID]
		key[e], key[n+e] = ^b.YHi, ^b.YLo
	}
	for e := range perm {
		perm[e] = int32(e)
	}
	// Descending y; the sort is stable and every top event precedes every
	// bottom event in perm, so at equal y insertions come before removals
	// and rectangles that merely touch in y are simultaneously live and get
	// reported.
	perm, sc.spare = radix.Sort(perm, sc.spare, key)
	sc.key, sc.perm = key, perm

	tree := &sc.tree
	tree.Reset(coords, ivs)
	var cur int // box of the event being queried
	report := func(e interval.Entry) {
		st.PairsFound++
		a, c := e.ID, cur
		if a > c {
			a, c = c, a
		}
		fn(a, c)
	}
	for _, ev := range perm {
		st.Events++
		if int(ev) >= n {
			tree.Delete(int(ev) - n)
			continue
		}
		iv := ivs[ev]
		st.TreeQueries++
		cur = iv.ID
		tree.Query(iv.Lo, iv.Hi, report)
		// Insert after querying so the rectangle does not report itself;
		// endpoints are in the skeleton by construction, so a failed insert
		// means the sweep state is corrupt — surface it to the caller
		// instead of panicking library code.
		if err := tree.Insert(int(ev)); err != nil {
			return st, fmt.Errorf("sweep: inserting interval [%d,%d] of box %d: %w",
				iv.Lo, iv.Hi, iv.ID, err)
		}
		st.MaxLive = max(st.MaxLive, tree.Len())
	}
	st.NodesVisited = tree.Visited()
	return st, nil
}

// SweepRow sweeps one partition row: the boxes raw[m] of its members m,
// each expanded by reach, and keeps every overlapping pair for EachPair. The
// Stats are the sweep's; PairsFound is the number of pairs kept.
func (sc *Scratch) SweepRow(raw []geom.Rect, members []int, reach int64) (Stats, error) {
	boxes := sc.rowBoxes[:0]
	for _, m := range members {
		boxes = append(boxes, raw[m].Expand(reach))
	}
	sc.rowBoxes = boxes
	sc.pairs = sc.pairs[:0]
	return sc.Overlaps(boxes, func(a, b int) {
		sc.pairs = append(sc.pairs, [2]int{members[a], members[b]})
	})
}

// EachPair calls fn for every pair the last SweepRow kept, in the order the
// sweep found them, with the members' raw indices: fn(members[a],
// members[b]) for row boxes a < b.
func (sc *Scratch) EachPair(fn func(a, b int)) {
	for _, p := range sc.pairs {
		fn(p[0], p[1])
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// OverlapsBetween reports overlapping pairs between two distinct rectangle
// sets (for inter-layer checks such as enclosure): fn(a, b) receives an
// index into as and an index into bs. Implemented as one sweep over the
// union with set tags, so the cost stays O((n+m) log(n+m) + k). The error
// contract matches Overlaps.
func OverlapsBetween(as, bs []geom.Rect, fn func(a, b int)) (Stats, error) {
	boxes := make([]geom.Rect, 0, len(as)+len(bs))
	boxes = append(boxes, as...)
	boxes = append(boxes, bs...)
	na := len(as)
	return Overlaps(boxes, func(x, y int) {
		switch {
		case x < na && y >= na:
			fn(x, y-na)
		case y < na && x >= na:
			fn(y, x-na)
		}
		// same-set pairs are ignored
	})
}

// BruteForcePairs is the quadratic reference used by tests and tiny inputs.
func BruteForcePairs(boxes []geom.Rect, fn func(a, b int)) {
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				fn(i, j)
			}
		}
	}
}
