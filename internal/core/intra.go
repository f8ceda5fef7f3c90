package core

import (
	"cmp"
	"context"
	"slices"

	"opendrc/internal/checks"
	"opendrc/internal/faults"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// intraMarkers appends the violation markers of one cell's own layer
// polygons for an intra-polygon rule to dst, in the cell's local frame. min
// is already scaled into the cell's frame (magnified instances divide the
// threshold). Callers pass a recycled buffer; markers are copied out before
// it is reused.
func intraMarkers(dst []checks.Marker, c *layout.Cell, r rules.Rule, min int64) []checks.Marker {
	out := dst
	emit := func(m checks.Marker) { out = append(out, m) }
	for _, pi := range c.LocalPolyIndex(r.Layer) {
		r.CheckPolygon(c.Polys[pi].Shape, layout.PolyRef{Cell: c, Idx: int(pi)}, min, emit)
	}
	return out
}

// runIntraSeq executes one intra-polygon rule in the sequential mode with
// the hierarchy task pruning of Section IV-C: each cell definition is
// checked once per distinct magnification, and the result is replayed for
// every instance ("if the corresponding cell has already been checked
// elsewhere, and the transformations preserve the target properties of the
// check, the check result could be safely reused" — all eight orientations
// preserve widths, areas and rectilinearity; magnification rescales the
// threshold).
// Cell definitions are independent, so the loop fans out across the worker
// pool; each definition writes into its own result slot and the slots merge
// in definition order, keeping the report bit-identical for every worker
// count.
func (e *Engine) runIntraSeq(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report) error {
	defer rep.Profile.Phase("intra:" + r.Kind.String())()
	cells := lo.LayerCells(r.Layer)
	rp := e.restrictFor(r)
	tbl := takeShards(&e.shards, len(cells))
	err := pool.ForEachCtx(trace.WithTask(ctx, "cell"), e.opts.Workers, len(cells), func(i int) error {
		c := cells[i]
		if err := e.opts.Faults.Hit(ctx, faults.SiteCell, c.Name); err != nil {
			return err
		}
		if len(c.LocalPolyIndex(r.Layer)) == 0 {
			return nil // cell participates only through its children
		}
		insts := placements[c.ID]
		if len(insts) == 0 {
			return nil
		}
		// Delta restriction: skip definitions with no instance near the
		// dirty region — none of their markers can be claimed.
		if rp != nil && !rp.anyPlacementNear(localIntraMBR(c, r.Layer), insts) {
			return nil
		}
		sh := &tbl.s[i]
		if e.opts.DisablePruning {
			for _, t := range insts {
				sh.markers = intraMarkers(sh.markers[:0], c, r, r.IntraMin(t.Magnification()))
				sh.stats.reuse(1)
				sh.vs = appendMarkers(sh.vs, r, c.Name, sh.markers, t)
			}
			return nil
		}
		for _, g := range magGroups(insts) {
			sh.markers = intraMarkers(sh.markers[:0], c, r, r.IntraMin(g.mag))
			sh.stats.reuse(len(g.insts))
			for _, t := range g.insts {
				sh.vs = appendMarkers(sh.vs, r, c.Name, sh.markers, t)
			}
		}
		return nil
	})
	if err != nil {
		// Shards are discarded wholesale: a failed rule contributes nothing,
		// keeping degraded reports independent of which worker got how far.
		tbl.discard()
		return err
	}
	tbl.mergeViolations(rep)
	return nil
}

// magGroup is the instances of one cell definition that share a
// magnification: the definition is checked once per group, and the result
// replays for every instance in it.
type magGroup struct {
	mag   int64
	insts []geom.Transform
}

// magGroups splits a definition's instances by magnification, groups in
// ascending mag order and instances in placement order, so reports are
// deterministic in both modes. Magnified instances are rare: when every
// placement is at unit scale the one group shares insts instead of copying
// it.
func magGroups(insts []geom.Transform) []magGroup {
	if !slices.ContainsFunc(insts, func(t geom.Transform) bool { return t.Mag > 1 }) {
		return []magGroup{{mag: 1, insts: insts}}
	}
	var out []magGroup
	for _, t := range insts {
		mag := t.Magnification()
		i := slices.IndexFunc(out, func(g magGroup) bool { return g.mag == mag })
		if i < 0 {
			i = len(out)
			out = append(out, magGroup{mag: mag})
		}
		out[i].insts = append(out[i].insts, t)
	}
	slices.SortFunc(out, func(a, b magGroup) int { return cmp.Compare(a.mag, b.mag) })
	return out
}

// appendMarkers appends instance-frame violations for the cell's local
// markers to dst.
func appendMarkers(dst []rules.Violation, r rules.Rule, cell string, markers []checks.Marker, t geom.Transform) []rules.Violation {
	for _, m := range markers {
		dst = append(dst, r.Violation(r.InstanceMarker(m, t), cell))
	}
	return dst
}
