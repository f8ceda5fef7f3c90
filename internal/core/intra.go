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

// intraUnit is one computation of an intra-polygon rule: the local shapes of
// cell c's polygons polys, checked once at magnification mag, whose markers
// replay for every instance transform in insts.
type intraUnit struct {
	c     *layout.Cell
	polys []int32
	mag   int64
	insts []geom.Transform
}

// intraUnits is an intra-polygon rule's work, the same list in both modes. A
// full run has one unit per cell definition and distinct magnification of its
// instances — the Section IV-C pruning ("if the corresponding cell has
// already been checked elsewhere, and the transformations preserve the
// target properties of the check, the check result could be safely reused":
// all eight orientations preserve widths, areas and rectilinearity;
// magnification rescales the threshold). A restricted run has one unit per
// polygon its work window returns: its local shape at its instance's
// magnification, its markers replayed with its own transform and definition
// name — the records of the full run.
func (e *Engine) intraUnits(lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report, pc *parCtx) []intraUnit {
	if rp := e.restrictFor(r); rp != nil {
		var found []layout.PlacedPoly
		_ = hostPhase(rep, pc, "delta:window", func() error { found, _ = rp.windowPolys(lo, r.Layer); return nil })
		units := make([]intraUnit, len(found))
		for i, pp := range found {
			units[i] = intraUnit{pp.Src.Cell, []int32{int32(pp.Src.Idx)}, pp.Trans.Magnification(), []geom.Transform{pp.Trans}}
		}
		return units
	}
	var units []intraUnit
	for _, c := range lo.LayerCells(r.Layer) {
		local := c.LocalPolyIndex(r.Layer)
		if len(local) == 0 || len(placements[c.ID]) == 0 {
			continue // the cell participates only through its children
		}
		for _, g := range magGroups(placements[c.ID]) {
			units = append(units, intraUnit{c, local, g.mag, g.insts})
		}
	}
	return units
}

// intraMarkers returns the violation markers of unit u's polygons for an
// intra-polygon rule, in the cell's local frame, at the threshold of the
// unit's magnification.
func intraMarkers(u *intraUnit, r rules.Rule) []checks.Marker {
	var out []checks.Marker
	emit := func(m checks.Marker) { out = append(out, m) }
	min := r.IntraMin(u.mag)
	for _, pi := range u.polys {
		r.CheckPolygon(u.c.Polys[pi].Shape, layout.PolyRef{Cell: u.c, Idx: int(pi)}, min, emit)
	}
	return out
}

// runIntraSeq executes one intra-polygon rule in the sequential mode: each
// unit is checked once and its markers replayed for every instance. Units
// are independent, so the loop fans out across the worker pool; each unit
// writes into its own result slot and the slots merge in unit order, keeping
// the report bit-identical for every worker count.
func (e *Engine) runIntraSeq(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report) error {
	units := e.intraUnits(lo, r, placements, rep, nil)
	defer rep.Profile.Phase("intra:" + r.Kind.String())()
	tbl := make(shardTable, len(units))
	err := pool.ForEachCtx(trace.WithTask(ctx, "cell"), e.opts.Workers, len(units), func(i int) error {
		u := &units[i]
		if err := e.opts.Faults.Hit(ctx, faults.SiteCell, u.c.Name); err != nil {
			return err
		}
		sh := &tbl[i]
		markers := intraMarkers(u, r)
		sh.stats.reuse(len(u.insts))
		for _, t := range u.insts {
			sh.vs = appendMarkers(sh.vs, r, u.c.Name, markers, t)
		}
		return nil
	})
	if err != nil {
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
