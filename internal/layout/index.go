package layout

import (
	"cmp"
	"math"
	"slices"
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

// layerIndex is the lazily built index slot of one (cell, layer) pair. Slots
// exist only for pairs with more than indexMinItems items; computeMBRs and
// ApplyEdits create and drop them, both with exclusive access to the layout.
type layerIndex struct {
	once sync.Once
	// tree is written inside once.Do and never modified afterwards, so
	// concurrent queries read it without a lock once get has returned.
	tree *rtree
}

// get returns the slot's tree, building it on first use.
func (ix *layerIndex) get(c *Cell, l Layer) *rtree {
	ix.once.Do(func() { ix.tree = buildRTree(c, l) })
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

// setIndexed creates or drops the (c, l) slot after a build or an edit left
// the pair with the given item count; an existing slot is kept.
func (c *Cell) setIndexed(l Layer, items int) {
	switch {
	case items <= indexMinItems || c.placeStart == nil && len(c.Refs) > 0:
		delete(c.index, l)
	case c.index[l] == nil:
		if c.index == nil {
			c.index = make(map[Layer]*layerIndex)
		}
		c.index[l] = new(layerIndex)
	}
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

// indexItem is one item during the bulk load.
type indexItem struct {
	id  uint32
	box geom.Rect // cell frame
}

// buildRTree bulk-loads the index of cell c on layer l by sort-tile-recursive
// packing: items are sorted by box center in x, cut into √(leaves) vertical
// slabs, each slab sorted by center in y and cut into leaves. Ties break by
// item id, so the tree is a function of the cell alone.
func buildRTree(c *Cell, l Layer) *rtree {
	t := &rtree{polyEnd: uint32(len(c.Polys))}
	// Size the scratch exactly: grown by append it would leave several
	// times its final size behind as garbage, which a short run never
	// collects and so pays for in peak memory.
	n := len(c.polysByLayer[l])
	for ri := range c.Refs {
		if c.Refs[ri].Child.HasLayer(l) {
			n += c.Refs[ri].NumPlacements()
		}
	}
	items := make([]indexItem, 0, n)
	for _, pi := range c.polysByLayer[l] {
		items = append(items, indexItem{id: uint32(pi), box: c.Polys[pi].Shape.MBR()})
	}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		childR := ref.Child.LayerMBR(l)
		if childR.Empty() {
			continue
		}
		id := t.polyEnd + c.placeStart[ri]
		for col := 0; col < ref.Cols; col++ {
			for row := 0; row < ref.Rows; row++ {
				items = append(items, indexItem{id: id, box: ref.Placement(col, row).ApplyRect(childR)})
				id++
			}
		}
	}

	byX := func(a, b indexItem) int {
		return cmp.Or(cmp.Compare(a.box.XLo+a.box.XHi, b.box.XLo+b.box.XHi), cmp.Compare(a.id, b.id))
	}
	byY := func(a, b indexItem) int {
		return cmp.Or(cmp.Compare(a.box.YLo+a.box.YHi, b.box.YLo+b.box.YHi), cmp.Compare(a.id, b.id))
	}
	leaves := (len(items) + indexFanout - 1) / indexFanout
	slab := int(math.Ceil(math.Sqrt(float64(leaves)))) * indexFanout
	slices.SortFunc(items, byX)
	for s := 0; s < len(items); s += slab {
		slices.SortFunc(items[s:min(s+slab, len(items))], byY)
	}

	t.ids = make([]uint32, len(items))
	level := emptyRects(leaves)
	for i, it := range items {
		t.ids[i] = it.id
		level[i/indexFanout] = level[i/indexFanout].Union(it.box)
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
