package core

import (
	"context"
	"fmt"

	"opendrc/internal/checks"
	"opendrc/internal/faults"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// Sequential inter-polygon spacing (Sections IV-C and IV-D).
//
// Every violating polygon pair has a unique lowest-common-ancestor cell
// *definition*: the deepest cell whose frame contains both polygons' paths.
// Computing each definition's violation set once and replaying it for every
// instance is exactly the paper's memoization — "only if (aᴹ, aᴺ) has been
// checked, OpenDRC marks it down for possible reuse", with the same-parent
// caveat handled because relative positions inside one definition are fixed.
// Per definition, candidate pairs come from the standard sweepline over
// rule-distance-expanded MBRs; pairs whose expanded MBRs are disjoint are
// never generated ("MBRᴹₐ ∩ MBRᴺᵦ = ∅ ... the check could be eliminated"),
// and unordered pairs appear once (the id-ordering rule).

// spaceItem is one placement of a child reference inside a cell definition:
// a sweepline participant beside the definition's local polygons.
type spaceItem struct {
	child *layout.Cell
	place geom.Transform
}

// runSpacingSeq executes one spacing rule sequentially. It never flattens
// (the hierarchy is the point), so it reads nothing of the geometry cache.
func (e *Engine) runSpacingSeq(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report) error {
	// Each definition appears once in the layer tree, so computing inside
	// this loop *is* the memoization: the result replays per instance.
	rp := e.restrictFor(r)
	// The definitions run one after another, so one participant MBR list
	// serves them all.
	var raw []geom.Rect
	for _, c := range lo.LayerCells(r.Layer) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(placements[c.ID]) == 0 {
			continue
		}
		// Delta restriction: every marker of this definition lies inside its
		// subtree layer MBR, so a definition with no instance near the dirty
		// region contributes nothing claimable and is skipped whole.
		if rp != nil && !rp.anyPlacementNear(c.LayerMBR(r.Layer), placements[c.ID]) {
			continue
		}
		markers, err := e.cellSpacingMarkers(ctx, lo, c, r, rep, &raw, rp, placements[c.ID])
		if err != nil {
			return err
		}
		rep.Stats.reuse(len(placements[c.ID]))
		for _, t := range placements[c.ID] {
			rep.Violations = appendMarkers(rep.Violations, r, c.Name, markers, t)
		}
	}
	return nil
}

// cellSpacingMarkers computes the spacing violations whose LCA is the cell
// definition c, in c's local frame: pairs among local polygons, pairs
// between local polygons and child subtrees, pairs between sibling child
// subtrees, and the notches of local polygons. Following the paper's flow
// (Fig. 1 / Fig. 4), the cell's participants are first split into
// independent rows by the adaptive partition, then each row runs the MBR
// sweepline, and surviving pairs get edge-to-edge checks. buf is the
// caller's participant MBR buffer, grown here when c needs more.
func (e *Engine) cellSpacingMarkers(ctx context.Context, lo *layout.Layout, c *layout.Cell, r rules.Rule, rep *Report, buf *[]geom.Rect, rp *rulePlan, insts []geom.Transform) ([]checks.Marker, error) {
	lim := r.SpacingLimit()
	min := lim.Reach()
	var out []checks.Marker
	emit := func(m checks.Marker) { out = append(out, m) }

	// near translates the delta restriction into this definition's local
	// frame: a local box matters only if some instance maps it near the
	// dirty region. Inter-polygon rules reject magnified references, so the
	// instance transforms here are rigid and map boxes to boxes exactly.
	near := func(localBox geom.Rect) bool {
		return rp == nil || rp.anyPlacementNear(localBox, insts)
	}

	// Notches of local polygons belong to this definition.
	local := c.LocalPolyIndex(r.Layer)
	stopChecks := rep.Profile.Phase("spacing:edge-checks")
	for _, pi := range local {
		if p := c.Polys[pi].Shape; near(p.MBR()) {
			checks.CheckNotchLim(p, lim, emit)
		}
	}
	stopChecks()

	// Sweepline participants are the local polygons, then the child
	// placements: participant i < nl is local polygon local[i], any other is
	// placement places[i-nl]. Their raw layer MBRs are what the partition
	// reads; each row expands its members' MBRs ("enlarged by a minimum rule
	// distance") for pair generation. The MBR list is the caller's buffer,
	// reused from definition to definition. Both lists are sized up front: a
	// top cell has ~10⁵ placements.
	nl, n := len(local), len(local)
	for ri := range c.Refs {
		if ref := &c.Refs[ri]; !ref.Child.LayerMBR(r.Layer).Empty() {
			n += ref.NumPlacements()
		}
	}
	places := make([]spaceItem, 0, n-nl)
	if cap(*buf) < n {
		*buf = make([]geom.Rect, 0, n)
	}
	raw := (*buf)[:0]
	for _, pi := range local {
		raw = append(raw, c.Polys[pi].Shape.MBR())
	}
	for ri := range c.Refs {
		ref := &c.Refs[ri]
		childR := ref.Child.LayerMBR(r.Layer)
		if childR.Empty() {
			continue
		}
		ref.ForEachPlacement(func(t geom.Transform) {
			places = append(places, spaceItem{child: ref.Child, place: t})
			raw = append(raw, t.ApplyRect(childR))
		})
	}
	if len(raw) < 2 {
		return out, nil
	}

	// Adaptive row partition: rows separated by more than the rule reach
	// cannot interact, so each row sweeps independently.
	stopPart := rep.Profile.Phase("spacing:partition")
	rows := partition.Rows(raw, min, partition.Pigeonhole)
	stopPart()

	// Row independence is exactly what the worker pool needs: each row runs
	// its sweepline and edge checks on a worker, writing markers and
	// counters into its own shard; shards merge in row order so the result
	// is bit-identical for every worker count.
	span := c.LayerMBR(r.Layer)
	tbl := make(shardTable, len(rows))
	err := pool.ForEachCtx(trace.WithTask(ctx, "row"), e.opts.Workers, len(rows), func(ri int) error {
		row := rows[ri]
		if err := e.opts.Faults.Hit(ctx, faults.SiteRow,
			fmt.Sprintf("%s/%s/row#%d", r.ID, c.Name, ri)); err != nil {
			return err
		}
		if len(row.Members) < 2 {
			return nil
		}
		// Delta restriction: pair markers lie between their two members, so
		// the whole row's output fits inside its y-band — a band no instance
		// maps near the dirty region re-derives nothing claimable.
		if !near(geom.Rect{XLo: span.XLo, YLo: row.YLo, XHi: span.XHi, YHi: row.YHi}) {
			return nil
		}
		res := &tbl[ri]
		remit := func(m checks.Marker) { res.markers = append(res.markers, m) }
		// Each worker draws its own sweep scratch, which keeps the row's
		// expanded boxes and candidate pairs until the row is done.
		sc := takeScratch(&e.sweeps)
		defer e.sweeps.Put(sc)
		stopSweep := rep.Profile.Phase("spacing:sweepline")
		st, err := sc.SweepRow(raw, row.Members, min)
		stopSweep()
		if err != nil {
			return err
		}
		res.stats.PairsConsidered += st.PairsFound

		stopRowChecks := rep.Profile.Phase("spacing:edge-checks")
		defer stopRowChecks()
		sc.EachPair(func(a, b int) {
			switch {
			case a < nl && b < nl:
				res.stats.PairsChecked++
				checks.CheckSpacingLim(c.Polys[local[a]].Shape, c.Polys[local[b]].Shape, lim, remit)
			case a < nl:
				e.spacingPolyVsSubtree(lo, c, local[a], places[b-nl], r.Layer, lim, &res.stats, remit)
			case b < nl:
				e.spacingPolyVsSubtree(lo, c, local[b], places[a-nl], r.Layer, lim, &res.stats, remit)
			default:
				e.spacingSubtreeVsSubtree(lo, places[a-nl], places[b-nl], r.Layer, lim, &res.stats, remit)
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl.mergeMarkers(out, rep), nil
}

// collectSubtree returns the layer polygons of item's child subtree, in the
// parent cell's frame, restricted to those whose MBR intersects the window
// (also parent frame). Counters accumulate into st, which is a per-row
// shard during the fan-out.
func collectSubtree(lo *layout.Layout, it spaceItem, l layout.Layer, window geom.Rect, st *Stats) []geom.Polygon {
	st.SubtreeQueries++
	childWindow := it.place.Inverse().ApplyRect(window)
	found := lo.QuerySubtree(it.child, l, childWindow)
	out := make([]geom.Polygon, len(found))
	for i, pp := range found {
		out[i] = pp.Shape.Transform(it.place)
	}
	return out
}

func (e *Engine) spacingPolyVsSubtree(lo *layout.Layout, c *layout.Cell, polyIdx int32, ref spaceItem, l layout.Layer, lim checks.SpacingLimit, st *Stats, emit func(checks.Marker)) {
	p := c.Polys[polyIdx].Shape
	near := collectSubtree(lo, ref, l, p.MBR().Expand(lim.Reach()), st)
	for _, q := range near {
		st.PairsChecked++
		checks.CheckSpacingLim(p, q, lim, emit)
	}
}

func (e *Engine) spacingSubtreeVsSubtree(lo *layout.Layout, a, b spaceItem, l layout.Layer, lim checks.SpacingLimit, st *Stats, emit func(checks.Marker)) {
	// Polygons of A near B's box, and vice versa; a violating pair (p, q)
	// has p within reach of q, so p intersects B's expanded box and q
	// intersects A's expanded box.
	reach := lim.Reach()
	aBox := a.place.ApplyRect(a.child.LayerMBR(l)).Expand(reach)
	bBox := b.place.ApplyRect(b.child.LayerMBR(l)).Expand(reach)
	pa := collectSubtree(lo, a, l, bBox, st)
	if len(pa) == 0 {
		return
	}
	pb := collectSubtree(lo, b, l, aBox, st)
	for _, p := range pa {
		pm := p.MBR().Expand(reach)
		for _, q := range pb {
			if !pm.Overlaps(q.MBR()) {
				continue
			}
			st.PairsChecked++
			checks.CheckSpacingLim(p, q, lim, emit)
		}
	}
}
