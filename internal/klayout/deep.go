package klayout

import (
	"context"
	"slices"
	"sort"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// Deep (hierarchical) mode. Definitions are checked once, but results
// materialize through per-instance *variants*: every instance's geometry is
// transformed into the global frame before use — the variant-building cost
// that distinguishes KLayout's deep mode from marker replay. Inter-polygon
// interactions are discovered per shape (linear region scans, no global
// sweepline) and processed per interaction *cluster* with pairwise tests,
// which is why deep mode loses to flat mode on dense flat routing layers.

// deepItem is an instance of a cell or a loose top-level polygon.
type deepItem struct {
	cell  *layout.Cell   // nil for loose polygons
	trans geom.Transform // instance placement
	poly  geom.Polygon   // loose polygon (cell == nil)
	box   geom.Rect      // layer MBR in global frame, expanded by the halo
}

// deepItems lists instances carrying the layer plus loose top polygons.
func deepItems(lo *layout.Layout, l layout.Layer, halo int64) []deepItem {
	var items []deepItem
	placements := lo.Placements()
	for _, c := range lo.LayerCells(l) {
		if c == lo.Top {
			continue
		}
		// Only instantiate definitions that own or contain layer geometry;
		// intermediate cells are reached through their own entries.
		if len(c.LocalPolyIndex(l)) == 0 {
			continue
		}
		for _, t := range placements[c.ID] {
			items = append(items, deepItem{
				cell: c, trans: t,
				box: t.ApplyRect(localLayerMBR(c, l)).Expand(halo),
			})
		}
	}
	for _, pi := range lo.Top.LocalPolyIndex(l) {
		p := lo.Top.Polys[pi].Shape
		items = append(items, deepItem{poly: p, box: p.MBR().Expand(halo)})
	}
	return items
}

// localLayerMBR bounds only the cell's own polygons on the layer (children
// appear as their own deep items).
func localLayerMBR(c *layout.Cell, l layout.Layer) geom.Rect {
	r := geom.EmptyRect()
	for _, pi := range c.LocalPolyIndex(l) {
		r = r.Union(c.Polys[pi].Shape.MBR())
	}
	return r
}

// materialize returns the item's layer polygons in the global frame — the
// variant transform work deep mode pays per instance.
func (it *deepItem) materialize(l layout.Layer) []geom.Polygon {
	if it.cell == nil {
		return []geom.Polygon{it.poly}
	}
	idx := it.cell.LocalPolyIndex(l)
	out := make([]geom.Polygon, len(idx))
	for i, pi := range idx {
		out[i] = it.cell.Polys[pi].Shape.Transform(it.trans)
	}
	return out
}

// checkDeep runs one rule in deep mode.
func checkDeep(ctx context.Context, lo *layout.Layout, r rules.Rule, res *Result) error {
	emit := emitFn(res, r)
	switch r.Kind {
	case rules.Spacing:
		return deepSpacing(ctx, lo, r, emit)
	case rules.Enclosure:
		return deepEnclosure(ctx, lo, r, emit)
	default:
		return deepIntra(ctx, lo, r, emit)
	}
}

// deepIntra computes per definition and magnification, then builds each
// instance's variant (transforming its geometry) and maps the markers
// through it.
func deepIntra(ctx context.Context, lo *layout.Layout, r rules.Rule, emit func(checks.Marker)) error {
	placements := lo.Placements()
	for _, c := range lo.LayerCells(r.Layer) {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := c.LocalPolyIndex(r.Layer)
		if len(idx) == 0 {
			continue
		}
		// Definition results by magnification, checked on first use: a
		// magnified instance scales the threshold, so it cannot replay the
		// unit-scale result.
		var mags []int64
		var defMarkers [][]checks.Marker
		for _, t := range placements[c.ID] {
			mag := t.Magnification()
			g := slices.Index(mags, mag)
			if g < 0 {
				var ms []checks.Marker
				min := r.IntraMin(mag)
				collect := func(m checks.Marker) { ms = append(ms, m) }
				for _, pi := range idx {
					r.CheckPolygon(c.Polys[pi].Shape, layout.PolyRef{Cell: c, Idx: int(pi)}, min, collect)
				}
				g = len(mags)
				mags = append(mags, mag)
				defMarkers = append(defMarkers, ms)
			}
			// Variant build: the instance geometry is materialized even
			// when the definition produced no markers.
			variant := deepItem{cell: c, trans: t}
			shapes := variant.materialize(r.Layer)
			_ = shapes
			for _, m := range defMarkers[g] {
				emit(r.InstanceMarker(m, t))
			}
		}
	}
	return nil
}

// deepSpacing: definition-internal results replay per instance; boundary
// interactions cluster via per-shape region scans and run pairwise within
// each cluster.
func deepSpacing(ctx context.Context, lo *layout.Layout, r rules.Rule, emit func(checks.Marker)) error {
	placements := lo.Placements()
	// Definition-internal spacing (notches + pairs among the cell's own
	// polygons), replayed per instance through variants.
	for _, c := range lo.LayerCells(r.Layer) {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := c.LocalPolyIndex(r.Layer)
		if len(idx) == 0 {
			continue
		}
		lim := r.SpacingLimit()
		var internal []checks.Marker
		collect := func(m checks.Marker) { internal = append(internal, m) }
		for i, pi := range idx {
			checks.CheckNotchLim(c.Polys[pi].Shape, lim, collect)
			for _, pj := range idx[i+1:] {
				a, b := c.Polys[pi].Shape, c.Polys[pj].Shape
				if a.MBR().Expand(lim.Reach()).Overlaps(b.MBR()) {
					checks.CheckSpacingLim(a, b, lim, collect)
				}
			}
		}
		for _, t := range placements[c.ID] {
			variant := deepItem{cell: c, trans: t}
			_ = variant.materialize(r.Layer)
			for _, m := range internal {
				m.Box = t.ApplyRect(m.Box)
				m.EdgeA = m.EdgeA.Transform(t)
				m.EdgeB = m.EdgeB.Transform(t)
				emit(m)
			}
		}
	}

	// Boundary interactions between items.
	items := deepItems(lo, r.Layer, r.Reach())
	n := len(items)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Per-shape region scan: each item linearly scans the item list for
	// overlapping halos (no sweepline in deep mode).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if items[i].box.Overlaps(items[j].box) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	clusters := make(map[int][]int)
	for i := 0; i < n; i++ {
		clusters[find(i)] = append(clusters[find(i)], i)
	}
	// Visit clusters in sorted root order so marker emission order never
	// depends on map iteration.
	roots := make([]int, 0, len(clusters))
	for root := range clusters {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		if err := ctx.Err(); err != nil {
			return err
		}
		members := clusters[root]
		if len(members) < 2 {
			continue
		}
		// Materialize the whole cluster's variants, then pairwise-check
		// polygons across different items.
		var polys []geom.Polygon
		var owner []int
		for _, mi := range members {
			for _, p := range items[mi].materialize(r.Layer) {
				polys = append(polys, p)
				owner = append(owner, mi)
			}
		}
		lim := r.SpacingLimit()
		for i := 0; i < len(polys); i++ {
			bi := polys[i].MBR().Expand(lim.Reach())
			for j := i + 1; j < len(polys); j++ {
				if owner[i] == owner[j] {
					continue // internal pairs already handled per definition
				}
				if !bi.Overlaps(polys[j].MBR()) {
					continue
				}
				checks.CheckSpacingLim(polys[i], polys[j], lim, emit)
			}
		}
	}
	return nil
}

// deepEnclosure re-evaluates every via instance against a region scan of the
// metal items (variants rebuilt per instance, no monotone local shortcut).
func deepEnclosure(ctx context.Context, lo *layout.Layout, r rules.Rule, emit func(checks.Marker)) error {
	vias := deepItems(lo, r.Layer, r.Min)
	metals := deepItems(lo, r.Outer, 0)
	for _, v := range vias {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, via := range v.materialize(r.Layer) {
			window := via.MBR().Expand(r.Min)
			var cands []geom.Polygon
			for mi := range metals {
				if !metals[mi].box.Overlaps(window) {
					continue
				}
				for _, mp := range metals[mi].materialize(r.Outer) {
					if mp.MBR().Overlaps(window) {
						cands = append(cands, mp)
					}
				}
			}
			checks.EvaluateEnclosure(via, cands, r.Min, emit)
		}
	}
	return nil
}
