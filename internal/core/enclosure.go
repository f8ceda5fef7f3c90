package core

import (
	"context"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/sweep"
)

// Sequential enclosure checking. Enclosure is existential — a via passes
// when *some* metal covers it with margin — and monotone in metal: adding
// candidates can only turn failures into passes. The hierarchical strategy
// exploits this: each cell definition resolves its own vias against the
// metal inside the same subtree once; vias that pass locally pass in every
// instance (the memoized reuse), while vias that fail locally are deferred
// and re-evaluated per instance against the global metal around them (a
// parent may supply the missing coverage).

// residue is one shape its cell definition could not resolve against the
// cell's own subtree; every instance of it is re-evaluated globally.
type residue struct {
	cell    *layout.Cell
	polyIdx int32
}

// expandResidue instance-expands the deferred shapes — the global half of
// the enclosure rule in both modes. visit receives each instance in the
// global frame with its candidates (enclosureCands); cands is one buffer
// reused from instance to instance, valid only during the call.
func expandResidue(ctx context.Context, lo *layout.Layout, outer layout.Layer, reach int64, deferred []residue,
	placements [][]geom.Transform, visit func(d residue, shape geom.Polygon, cands []geom.Polygon)) error {
	var cands []geom.Polygon
	for _, d := range deferred {
		if err := ctx.Err(); err != nil {
			return err
		}
		shape := d.cell.Polys[d.polyIdx].Shape
		for _, t := range placements[d.cell.ID] {
			gshape := shape.Transform(t)
			cands = enclosureCands(lo, outer, reach, gshape, cands[:0])
			visit(d, gshape, cands)
		}
	}
	return nil
}

// enclosureCands appends to dst the outer-layer polygons a hierarchy range
// query finds within reach of a via's MBR (global frame), in the query's
// order — the order best-candidate ties break by.
func enclosureCands(lo *layout.Layout, outer layout.Layer, reach int64, via geom.Polygon, dst []geom.Polygon) []geom.Polygon {
	found, _ := lo.QueryLayer(outer, via.MBR().Expand(reach))
	for i := range found {
		dst = append(dst, found[i].Shape)
	}
	return dst
}

// runEnclosureWindow is a restricted enclosure run, the same in both modes:
// every via its work window returns is evaluated against exactly the
// candidates the full run's residue expansion gives it. A via the full run
// resolves inside its own definition passes here too — enclosure is monotone
// in metal, and that definition's metal is among the candidates — and one
// it defers meets the same candidates in the same order, so its markers are
// the full run's. Violations name the via's definition as the sequential
// full run does; the device kernel's name none. In parallel mode the run is
// host work on the modeled clock.
func (e *Engine) runEnclosureWindow(ctx context.Context, lo *layout.Layout, r rules.Rule, rp *rulePlan, rep *Report, pc *parCtx) error {
	return hostPhase(rep, pc, "delta:window", func() error {
		vias, _ := rp.windowPolys(lo, r.Layer)
		var cands []geom.Polygon
		for _, pp := range vias {
			if err := ctx.Err(); err != nil {
				return err
			}
			cell := ""
			if pc == nil { // the device kernel's hits name no definition
				cell = pp.Src.Cell.Name
			}
			cands = enclosureCands(lo, r.Outer, r.Min, pp.Shape, cands[:0])
			rep.Stats.PairsChecked += len(cands)
			rep.Stats.InstancesEmitted++
			checks.EvaluateEnclosure(pp.Shape, cands, r.Min, func(m checks.Marker) {
				rep.Violations = append(rep.Violations, r.Violation(m, cell))
			})
		}
		return nil
	})
}

// enclosureDefs is the Section IV-C definition pass of an enclosure rule,
// shared by both modes (each runs it inside its own phase): every cell
// definition resolves its own vias against its subtree once, a via resolved
// there passes in every instance, and the unresolved ones come back as the
// residue to evaluate instance by instance.
func (e *Engine) enclosureDefs(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report) ([]residue, error) {
	var deferred []residue
	for _, c := range lo.LayerCells(r.Layer) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(placements[c.ID]) == 0 {
			continue
		}
		local := c.LocalPolyIndex(r.Layer)
		if len(local) == 0 {
			continue
		}
		rep.Stats.DefsChecked++
		unresolved, err := e.enclosureLocalPass(lo, c, local, r, rep)
		if err != nil {
			return nil, err
		}
		resolved := len(local) - len(unresolved)
		rep.Stats.InstancesEmitted += resolved * len(placements[c.ID])
		rep.Stats.ChecksReused += resolved * (len(placements[c.ID]) - 1)
		for _, pi := range unresolved {
			deferred = append(deferred, residue{cell: c, polyIdx: pi})
		}
	}
	return deferred, nil
}

// runEnclosureSeq executes one enclosure rule sequentially.
func (e *Engine) runEnclosureSeq(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report) error {
	var deferred []residue
	if err := hostPhase(rep, nil, "enclosure:cell-checks", func() (err error) {
		deferred, err = e.enclosureDefs(ctx, lo, r, placements, rep)
		return err
	}); err != nil {
		return err
	}

	// Globally resolve the leftovers, instance by instance.
	defer rep.Profile.Phase("enclosure:global-residue")()
	return expandResidue(ctx, lo, r.Outer, r.Min, deferred, placements, func(d residue, gvia geom.Polygon, metals []geom.Polygon) {
		rep.Stats.PairsChecked += len(metals)
		rep.Stats.InstancesEmitted++
		checks.EvaluateEnclosure(gvia, metals, r.Min, func(m checks.Marker) {
			rep.Violations = append(rep.Violations, r.Violation(m, d.cell.Name))
		})
	})
}

// enclosureLocalPass resolves a cell definition's own vias against the metal
// inside the cell's subtree in one batch: a single windowed subtree query
// collects candidate metal, one sweep assigns candidates to vias, and each
// via is evaluated. It returns the local polygon indices of vias that did
// NOT resolve locally; those stay deferred rather than reported, since
// parent-level metal may still cover them.
func (e *Engine) enclosureLocalPass(lo *layout.Layout, c *layout.Cell, local []int32, r rules.Rule, rep *Report) ([]int32, error) {
	window := geom.EmptyRect()
	viaBoxes := make([]geom.Rect, len(local))
	for i, pi := range local {
		viaBoxes[i] = c.Polys[pi].Shape.MBR().Expand(r.Min)
		window = window.Union(viaBoxes[i])
	}
	found := lo.QuerySubtree(c, r.Outer, window)
	rep.Stats.SubtreeQueries++
	metalBoxes := make([]geom.Rect, len(found))
	for i := range found {
		metalBoxes[i] = found[i].Shape.MBR()
	}
	cands := make([][]geom.Polygon, len(local))
	if _, err := sweep.OverlapsBetween(viaBoxes, metalBoxes, func(v, m int) {
		cands[v] = append(cands[v], found[m].Shape)
	}); err != nil {
		return nil, err
	}
	var unresolved []int32
	for i, pi := range local {
		rep.Stats.PairsChecked += len(cands[i])
		ok, _ := checks.EvaluateEnclosure(c.Polys[pi].Shape, cands[i], r.Min, func(checks.Marker) {})
		if !ok {
			unresolved = append(unresolved, pi)
		}
	}
	return unresolved, nil
}
