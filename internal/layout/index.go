package layout

import (
	"math"
	"sort"
	"sync"

	"opendrc/internal/geom"
)

// Indexed hierarchy queries. The per-layer MBRs prune a subtree in O(1), but
// the walk still has to *look at* every child placement of a cell to apply
// the test, and a row-based design's top cell has ~10⁵ children: a via-sized
// window cost O(fan-out) however little it returned. Each (cell, layer) pair
// with many items therefore carries a static R-tree over the cell's own
// polygons and child placements on that layer, built lazily by the first
// query that can use it and immutable afterwards. The tree stores item ids
// and leaf boxes only; the walk re-applies its exact MBR test to every
// candidate the tree surfaces, in the canonical visit order, so an indexed
// query returns exactly the slice the plain walk would.

const (
	// indexMinItems is the largest item count (own polygons plus child
	// placements on the layer) that keeps the plain walk: a tree over a few
	// dozen items is a scan with extra steps.
	indexMinItems = 32
	// indexFanout is the number of items per leaf and of children per inner
	// node. Leaves hold no per-item boxes, so every item of an overlapping
	// leaf becomes a candidate: the fan-out bounds that over-read.
	indexFanout = 8
	// indexMaxTail is how many polygons ApplyEdits may insert on a layer
	// before the built tree is dropped (the next query rebuilds it); until
	// then they are a linearly scanned tail.
	indexMaxTail = 256
	// indexMaxPlacements bounds the placements of an indexable cell. It
	// keeps item ids within uint32 and the tree's memory proportionate: a
	// cell holding a 10⁹-instance AREF keeps the plain walk.
	indexMaxPlacements = 1 << 24
)

// layerIndex is the lazily built index of one (cell, layer) pair. It exists
// only for pairs with more than indexMinItems items; Cell.refresh creates and
// drops it, for the build and for ApplyEdits, both with exclusive access to
// the layout.
type layerIndex struct {
	once sync.Once
	// tree is written inside once.Do and never modified afterwards, so
	// concurrent queries read it without a lock once get has returned.
	tree *rtree
}

// get returns the tree over slot s of cell c, building it on first use.
func (ix *layerIndex) get(c *Cell, s *layerSlot) *rtree {
	ix.once.Do(func() { ix.tree = buildRTree(c, s) })
	return ix.tree
}

// outgrown reports whether edits have appended more than indexMaxTail
// polygons to own, the cell's ascending per-layer polygon list, since the
// tree was built. Only ApplyEdits calls it, so the plain read of tree is
// ordered after every query by the caller's exclusion.
func (ix *layerIndex) outgrown(own []int32) bool {
	return ix != nil && ix.tree != nil && len(own) > indexMaxTail &&
		uint32(own[len(own)-1-indexMaxTail]) >= ix.tree.polyEnd
}

// rtree is an STR-packed static R-tree over one cell's items on one layer.
// An item id below polyEnd is an index into Cell.Polys; any other id is
// polyEnd plus a placement ordinal (Cell.placementAt), so ascending id order
// is the walk's canonical order: own polygons, then refs by (ref, col, row).
type rtree struct {
	polyEnd uint32
	// ids holds the items leaf by leaf: leaf i owns ids[i*indexFanout:][:indexFanout].
	ids []uint32
	// levels[0] holds the leaf boxes; node i of levels[k+1] bounds nodes
	// [i*indexFanout, (i+1)*indexFanout) of levels[k]. The last level is the
	// root's children (at most indexFanout boxes).
	levels [][]geom.Rect
}

// numberPlacements fills placeStart: ref ri's instances take the placement
// ordinals [placeStart[ri], placeStart[ri+1]) in (col, row) order. A cell
// with more than indexMaxPlacements placements gets none and stays unindexed.
func (c *Cell) numberPlacements() {
	if len(c.Refs) == 0 {
		return
	}
	start := make([]uint32, len(c.Refs)+1)
	total := 0
	for ri := range c.Refs {
		total += c.Refs[ri].NumPlacements()
		if total > indexMaxPlacements {
			return
		}
		start[ri+1] = uint32(total)
	}
	c.placeStart = start
}

// placementAt decodes a placement ordinal into its reference and instance.
func (c *Cell) placementAt(ord uint32) (ref *Ref, col, row int) {
	ri := sort.Search(len(c.Refs), func(i int) bool { return c.placeStart[i+1] > ord })
	ref = &c.Refs[ri]
	k := int(ord - c.placeStart[ri])
	return ref, k / ref.Rows, k % ref.Rows
}

// strEntry is one item during the bulk load: 16 bytes to sort, its box left
// behind in a side array at ord.
type strEntry struct {
	key int64  // twice the box centre along the axis being sorted
	id  uint32 // the item
	ord uint32 // its position in generation order, which is ascending id order
}

// sortByKey stably sorts es by key: an LSD radix sort over the keys' range
// (two or three passes for die coordinates) between es and tmp. It returns
// the sorted slice and the spare one.
func sortByKey(es, tmp []strEntry) (sorted, spare []strEntry) {
	const bits = 11
	lo, hi := es[0].key, es[0].key
	for _, e := range es {
		lo, hi = min(lo, e.key), max(hi, e.key)
	}
	for shift := 0; uint64(hi-lo)>>shift != 0; shift += bits {
		var count [1 << bits]int
		for _, e := range es {
			count[uint64(e.key-lo)>>shift&(1<<bits-1)]++
		}
		for d, sum := 0, 0; d < len(count); d++ {
			count[d], sum = sum, sum+count[d]
		}
		for _, e := range es {
			d := uint64(e.key-lo) >> shift & (1<<bits - 1)
			tmp[count[d]] = e
			count[d]++
		}
		es, tmp = tmp, es
	}
	return es, tmp
}

// buildRTree bulk-loads the index of cell c on slot s's layer by
// sort-tile-recursive packing: items are sorted by box center in x, cut into
// √(leaves) vertical slabs, each slab sorted by center in y and cut into
// leaves. Ties break by item id, so the tree is a function of the cell alone.
func buildRTree(c *Cell, s *layerSlot) *rtree {
	t := &rtree{polyEnd: uint32(len(c.Polys))}
	// Size the scratch exactly: grown by append it would leave several
	// times its final size behind as garbage, which a short run never
	// collects and so pays for in peak memory.
	n := len(s.polys) + s.kids.placements
	boxes := make([]geom.Rect, 0, n) // cell frame, by ord
	entries := make([]strEntry, 0, n)
	add := func(id uint32, box geom.Rect) {
		entries = append(entries, strEntry{key: box.XLo + box.XHi, id: id, ord: uint32(len(boxes))})
		boxes = append(boxes, box)
	}
	for _, pi := range s.polys {
		add(uint32(pi), c.Polys[pi].Shape.MBR())
	}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		childR := ref.Child.LayerMBR(s.layer)
		if childR.Empty() {
			continue
		}
		id := t.polyEnd + c.placeStart[ri]
		for col := 0; col < ref.Cols; col++ {
			for row := 0; row < ref.Rows; row++ {
				add(id, ref.Placement(col, row).ApplyRect(childR))
				id++
			}
		}
	}

	// Both sorts are stable and start from generation order, so equal centres
	// stay in id order. The x order only decides which slab an item falls in;
	// the items are then sorted by y as a whole and dealt, in that order, into
	// their slabs, which leaves each slab sorted by (y, id).
	leaves := (n + indexFanout - 1) / indexFanout
	slab := int(math.Ceil(math.Sqrt(float64(leaves)))) * indexFanout
	byX, byY := sortByKey(entries, make([]strEntry, n))
	slabOf := make([]uint32, n) // by ord
	for rank, e := range byX {
		slabOf[e.ord] = uint32(rank / slab)
		byY[e.ord] = strEntry{key: boxes[e.ord].YLo + boxes[e.ord].YHi, id: e.id, ord: e.ord}
	}
	byY, _ = sortByKey(byY, byX)
	next := make([]int, (n+slab-1)/slab) // where each slab's next item goes
	for i := range next {
		next[i] = i * slab
	}
	t.ids = make([]uint32, n)
	level := emptyRects(leaves)
	for _, e := range byY {
		i := next[slabOf[e.ord]]
		next[slabOf[e.ord]]++
		t.ids[i] = e.id
		level[i/indexFanout] = level[i/indexFanout].Union(boxes[e.ord])
	}
	t.levels = append(t.levels, level)
	for len(level) > indexFanout {
		up := emptyRects((len(level) + indexFanout - 1) / indexFanout)
		for i, r := range level {
			up[i/indexFanout] = up[i/indexFanout].Union(r)
		}
		t.levels = append(t.levels, up)
		level = up
	}
	return t
}

func emptyRects(n int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		out[i] = geom.EmptyRect()
	}
	return out
}

// search appends to out the ids of every item in a leaf whose box overlaps
// w (a rect in the cell's frame), in no particular order.
func (t *rtree) search(w geom.Rect, out []uint32) []uint32 {
	root := len(t.levels) - 1
	return t.descend(root, 0, len(t.levels[root]), w, out)
}

func (t *rtree) descend(level, from, to int, w geom.Rect, out []uint32) []uint32 {
	boxes := t.levels[level]
	for i := from; i < min(to, len(boxes)); i++ {
		switch {
		case !boxes[i].Overlaps(w):
		case level == 0:
			out = append(out, t.ids[i*indexFanout:min((i+1)*indexFanout, len(t.ids))]...)
		default:
			out = t.descend(level-1, i*indexFanout, (i+1)*indexFanout, w, out)
		}
	}
	return out
}
