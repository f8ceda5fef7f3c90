package core

import (
	"context"

	"opendrc/internal/boolop"
	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// Derived-layer rules (Coverage and MinOverlap) evaluate boolean mask
// operations between a shape and the union of another layer's geometry
// around it. Like enclosure, both are monotone in the outer layer — adding
// metal can only help — so the hierarchical strategy is the same: resolve
// each cell definition's shapes against the cell's own subtree once, reuse
// the pass across instances, and re-evaluate only the residue against the
// global geometry per instance. Both engine modes execute these rules on
// the host: they are roadmap features of the paper ("supports for general
// geometric shapes"), not part of its GPU kernels.

// derivedOK evaluates one shape against candidate outer polygons.
func derivedOK(shape geom.Polygon, cands []geom.Polygon, r rules.Rule) bool {
	switch r.Kind {
	case rules.Coverage:
		return boolop.NotCut([]geom.Polygon{shape}, cands).Empty()
	case rules.MinOverlap:
		return boolop.OverlapArea([]geom.Polygon{shape}, cands) >= r.Min
	}
	return false
}

// derivedEmit reports the violation markers of a failing shape.
func derivedEmit(shape geom.Polygon, cands []geom.Polygon, r rules.Rule, emit func(checks.Marker)) {
	switch r.Kind {
	case rules.Coverage:
		// One marker per uncovered residue rectangle.
		for _, rect := range boolop.NotCut([]geom.Polygon{shape}, cands).Rects() {
			emit(checks.Marker{Box: rect, Dist: rect.Area()})
		}
	case rules.MinOverlap:
		emit(checks.Marker{
			Box:  shape.MBR(),
			Dist: boolop.OverlapArea([]geom.Polygon{shape}, cands),
		})
	}
}

// runDerivedSeq executes a Coverage or MinOverlap rule with the local-pass /
// global-residue scheme.
func (e *Engine) runDerivedSeq(ctx context.Context, lo *layout.Layout, r rules.Rule, placements [][]geom.Transform, rep *Report) error {
	var deferred []residue

	stop := rep.Profile.Phase("derived:cell-checks")
	for _, c := range lo.LayerCells(r.Layer) {
		if err := ctx.Err(); err != nil {
			stop()
			return err
		}
		if len(placements[c.ID]) == 0 {
			continue
		}
		local := c.LocalPolys(r.Layer)
		if len(local) == 0 {
			continue
		}
		rep.Stats.DefsChecked++
		for _, pi := range local {
			shape := c.Polys[pi].Shape
			if !e.opts.DisablePruning {
				found := lo.QuerySubtree(c, r.Outer, shape.MBR())
				rep.Stats.SubtreeQueries++
				cands := make([]geom.Polygon, len(found))
				for i := range found {
					cands[i] = found[i].Shape
				}
				rep.Stats.PairsChecked += len(cands)
				if derivedOK(shape, cands, r) {
					rep.Stats.InstancesEmitted += len(placements[c.ID])
					rep.Stats.ChecksReused += len(placements[c.ID]) - 1
					continue
				}
			}
			deferred = append(deferred, residue{cell: c, polyIdx: pi})
		}
	}
	stop()

	defer rep.Profile.Phase("derived:global-residue")()
	return expandResidue(ctx, lo, r.Outer, 0, deferred, placements, func(d residue, gshape geom.Polygon, cands []geom.Polygon) {
		rep.Stats.PairsChecked += len(cands)
		rep.Stats.InstancesEmitted++
		if derivedOK(gshape, cands, r) {
			return
		}
		derivedEmit(gshape, cands, r, func(m checks.Marker) {
			rep.Violations = append(rep.Violations, rules.Violation{
				Rule: r.ID, Kind: r.Kind, Layer: r.Layer, Marker: m, Cell: d.cell.Name,
			})
		})
	})
}
