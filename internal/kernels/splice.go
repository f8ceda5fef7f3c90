package kernels

import (
	"sort"

	"opendrc/internal/geom"
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
// copy of the buffer still holds valid.
func (e *Edges) Splice(remap []int32, first int, add []geom.Polygon) int64 {
	w, np := int(e.PolyStart[first]), first
	cols := [...][]int64{e.X0, e.Y0, e.X1, e.Y1, e.X2, e.Y2}
	survivorRuns(remap, first, func(p, q int) {
		lo, hi := int(e.PolyStart[p]), int(e.PolyStart[q])
		for _, c := range cols {
			copy(c[w:], c[lo:hi])
		}
		dp, de := int32(p-np), int32(lo-w)
		for k := lo; k < hi; k++ {
			e.Poly[k-lo+w] = e.Poly[k] - dp
		}
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
// eighth of headroom when a column's capacity is exceeded. The six
// coordinate columns stay carved from one backing array, each with the same
// spare capacity behind it.
func (e *Edges) resize(edges, polys int) {
	if edges > cap(e.X0) {
		c := edges + edges/8
		coords := make([]int64, 6*c)
		for i, col := range [...]*[]int64{&e.X0, &e.Y0, &e.X1, &e.Y1, &e.X2, &e.Y2} {
			n := copy(coords[i*c:(i+1)*c], *col)
			*col = coords[i*c : i*c+n : (i+1)*c]
		}
		e.Poly = append(make([]int32, 0, c), e.Poly...)
	}
	if polys+1 > cap(e.PolyStart) {
		e.PolyStart = append(make([]int32, 0, polys+1+polys/8), e.PolyStart...)
	}
	e.X0, e.Y0, e.X1 = e.X0[:edges], e.Y0[:edges], e.X1[:edges]
	e.Y1, e.X2, e.Y2 = e.Y1[:edges], e.X2[:edges], e.Y2[:edges]
	e.Poly = e.Poly[:edges]
	e.PolyStart = e.PolyStart[:polys+1]
}

// NewMBRTable builds the table of the given per-polygon boxes: the four
// coordinate arrays and the (XLo, index) x-order, from one radix sort of the
// indices by XLo (the sort Splice uses for the tail and the sweep executor
// for its views).
func NewMBRTable(boxes []geom.Rect) *MBRTable {
	n := len(boxes)
	t := &MBRTable{
		XLo: make([]int64, n), XHi: make([]int64, n),
		YLo: make([]int64, n), YHi: make([]int64, n),
		XOrder: make([]int32, n),
	}
	for i, b := range boxes {
		t.XLo[i], t.XHi[i] = b.XLo, b.XHi
		t.YLo[i], t.YHi[i] = b.YLo, b.YHi
		t.XOrder[i] = int32(i)
	}
	t.XOrder, _ = radixSort(t.XOrder, nil, t.XLo)
	return t
}

// Splice removes the polygons remap marks and appends the boxes of the
// re-queried ones. The x-order is filtered and renumbered in one pass, then
// the tail's keys — sorted on their own — merge in from the back.
func (t *MBRTable) Splice(remap []int32, first int, add []geom.Rect) {
	t.XLo, t.XHi = Compact(t.XLo, remap, first), Compact(t.XHi, remap, first)
	t.YLo, t.YHi = Compact(t.YLo, remap, first), Compact(t.YHi, remap, first)
	tail := len(t.XLo)
	added := make([]int32, len(add))
	for i, b := range add {
		t.XLo, t.XHi = append(t.XLo, b.XLo), append(t.XHi, b.XHi)
		t.YLo, t.YHi = append(t.YLo, b.YLo), append(t.YHi, b.YHi)
		added[i] = int32(tail + i)
	}
	added, _ = radixSort(added, nil, t.XLo)

	w := 0
	for _, p := range t.XOrder {
		if n := remap[p]; n >= 0 {
			t.XOrder[w] = n
			w++
		}
	}
	// Open a gap for each added box from the back: a binary search finds
	// where it belongs among the survivors and one block move shifts what
	// follows. Tail indices exceed every survivor's, so on equal XLo the
	// survivor sorts first and the search only compares keys.
	order := append(t.XOrder[:w], make([]int32, len(added))...)
	end := w
	for j := len(added) - 1; j >= 0; j-- {
		key := t.XLo[added[j]]
		at := sort.Search(end, func(i int) bool { return t.XLo[order[i]] > key })
		copy(order[at+j+1:], order[at:end])
		order[at+j] = added[j]
		end = at
	}
	t.XOrder = order
}
