package kernels

import (
	"sort"

	"opendrc/internal/geom"
	"opendrc/internal/radix"
)

// In-place splices of the per-layer buffers. A resident session patches a
// layer after an edit instead of re-deriving it: some polygons leave, the
// survivors keep their relative order and close ranks, and re-queried
// polygons join at the tail. Every splice takes the same description of that
// renumbering — remap[i] is polygon i's index afterwards, negative when it
// leaves; the identity below first, increasing over the survivors — and
// leaves its buffer equal, slice for slice, to what Pack / NewMBRTable build
// from the spliced polygon list. The passes move and renumber; none of them
// revisits a surviving polygon's vertices, sorts the layer, or allocates
// beyond amortised tail growth.

// survivorRuns calls move(p, q) for every maximal run [p, q) of surviving
// polygons at or above first, in order: a splice moves blocks, not elements.
func survivorRuns(remap []int32, first int, move func(p, q int)) {
	for p := first; p < len(remap); {
		if remap[p] < 0 {
			p++
			continue
		}
		q := p + 1
		for q < len(remap) && remap[q] >= 0 {
			q++
		}
		move(p, q)
		p = q
	}
}

// Compact closes s over the elements whose remap entry is negative (none
// below first), zeroes the vacated tail so it holds no stale references, and
// returns the shortened slice.
func Compact[T any](s []T, remap []int32, first int) []T {
	w := first
	survivorRuns(remap, first, func(p, q int) {
		w += copy(s[w:], s[p:q])
	})
	clear(s[w:])
	return s[:w]
}

// Splice removes the polygons remap marks and appends add at the tail. It
// returns the byte size of the surviving prefix — what a device-resident
// copy of the buffer still holds valid. A borrowed buffer (Share) moves to
// an array of its own first: the moves below would otherwise shift vertices
// under the polygons that share them. Later splices work in place.
func (e *Edges) Splice(remap []int32, first int, add []geom.Polygon) int64 {
	if e.borrowed {
		e.reserve(len(e.Pts))
		e.borrowed = false
	}
	w, np := int(e.PolyStart[first]), first
	survivorRuns(remap, first, func(p, q int) {
		lo, hi := int(e.PolyStart[p]), int(e.PolyStart[q])
		copy(e.Pts[w:], e.Pts[lo:hi])
		de := int32(lo - w)
		for i := p; i < q; i++ {
			e.PolyStart[i-p+np] = e.PolyStart[i] - de
		}
		w += hi - lo
		np += q - p
	})
	e.resize(w+countEdges(add), np+len(add))
	e.PolyStart[np] = int32(w)
	e.put(w, np, add)
	return edgeBytes(w, np)
}

// resize sets the buffer's length to edges/polys, reallocating with one
// eighth of headroom when a slice's capacity is exceeded.
func (e *Edges) resize(edges, polys int) {
	if edges > cap(e.Pts) {
		e.reserve(edges)
	}
	if polys+1 > cap(e.PolyStart) {
		e.PolyStart = append(make([]int32, 0, polys+1+polys/8), e.PolyStart...)
	}
	e.Pts = e.Pts[:edges]
	e.PolyStart = e.PolyStart[:polys+1]
}

// reserve moves the vertices to a new array with room for n of them and an
// eighth more.
func (e *Edges) reserve(n int) {
	e.Pts = append(make([]geom.Point, 0, n+n/8), e.Pts...)
}

// NewMBRTable builds the table of the given per-polygon boxes, which it
// keeps rather than copies: the (XLo, index) x-order, from one radix sort of
// the indices by XLo (the sort Splice uses for the tail and the sweep
// executor for its views).
func NewMBRTable(boxes []geom.Rect) *MBRTable {
	order := make([]int32, len(boxes))
	xlo := make([]int64, len(boxes))
	for i, b := range boxes {
		order[i], xlo[i] = int32(i), b.XLo
	}
	order, _ = radix.Sort(order, nil, xlo)
	return &MBRTable{Boxes: boxes, XOrder: order}
}

// Splice follows a splice of the boxes the table was built from: boxes is
// that slice afterwards — the survivors compacted in order (Compact, same
// remap) and the re-queried polygons' boxes appended — and becomes the
// table's. The x-order is filtered and renumbered in one pass, then the
// tail's keys — sorted on their own — merge in from the back.
func (t *MBRTable) Splice(remap []int32, boxes []geom.Rect) {
	w := 0
	for _, p := range t.XOrder {
		if n := remap[p]; n >= 0 {
			t.XOrder[w] = n
			w++
		}
	}
	added := make([]int32, len(boxes)-w)
	keys := make([]int64, len(added))
	for i := range added {
		added[i], keys[i] = int32(i), boxes[w+i].XLo
	}
	added, _ = radix.Sort(added, nil, keys)

	// Open a gap for each added box from the back: a binary search finds
	// where it belongs among the survivors and one block move shifts what
	// follows. Tail indices exceed every survivor's, so on equal XLo the
	// survivor sorts first and the search only compares keys.
	order := append(t.XOrder[:w], make([]int32, len(added))...)
	end := w
	for j := len(added) - 1; j >= 0; j-- {
		p := int32(w) + added[j]
		key := boxes[p].XLo
		at := sort.Search(end, func(i int) bool { return boxes[order[i]].XLo > key })
		copy(order[at+j+1:], order[at:end])
		order[at+j] = p
		end = at
	}
	t.Boxes, t.XOrder = boxes, order
}
