package checks

import (
	"opendrc/internal/geom"
)

// CheckWidth reports every internal width violation of the polygon: pairs of
// interior-facing edges closer than min. O(E²) over the polygon's own edges;
// standard-cell polygons have few edges, and larger polygons are routed
// through the sweepline executor by the engine.
func CheckWidth(p geom.Polygon, min int64, fn func(Marker)) int {
	n := p.NumEdges()
	found := 0
	for i := 0; i < n; i++ {
		e := p.Edge(i)
		for j := i + 1; j < n; j++ {
			if m, ok := EdgePairWidth(e, p.Edge(j), min); ok {
				found++
				fn(m)
			}
		}
	}
	return found
}

// CheckNotch reports intra-polygon spacing (notch) violations: pairs of
// exterior-facing edges of the same polygon closer than min.
func CheckNotch(p geom.Polygon, min int64, fn func(Marker)) int {
	return CheckNotchLim(p, Lim(min), fn)
}

// CheckNotchLim is CheckNotch with a projection-dependent limit.
func CheckNotchLim(p geom.Polygon, lim SpacingLimit, fn func(Marker)) int {
	n := p.NumEdges()
	found := 0
	for i := 0; i < n; i++ {
		e := p.Edge(i)
		for j := i + 1; j < n; j++ {
			if m, ok := EdgePairSpacingLim(e, p.Edge(j), lim); ok {
				found++
				fn(m)
			}
		}
	}
	return found
}

// CheckSpacing reports spacing violations between two distinct polygons:
// parallel-edge gaps and diagonal corner-to-corner gaps below min.
// Overlapping or abutting geometry (distance zero) is treated as connected
// and produces no violation, the conventional same-layer merge semantics.
func CheckSpacing(p, q geom.Polygon, min int64, fn func(Marker)) int {
	return CheckSpacingLim(p, q, Lim(min), fn)
}

// CheckSpacingLim is CheckSpacing with a projection-dependent limit; corner
// pairs have zero projection and always use the base minimum.
func CheckSpacingLim(p, q geom.Polygon, lim SpacingLimit, fn func(Marker)) int {
	np, nq := p.NumEdges(), q.NumEdges()
	found := 0
	for i := 0; i < np; i++ {
		e := p.Edge(i)
		eNext := p.Edge((i + 1) % np)
		for j := 0; j < nq; j++ {
			f := q.Edge(j)
			if m, ok := EdgePairSpacingLim(e, f, lim); ok {
				found++
				fn(m)
			}
			if m, ok := CornerSpacing(e, eNext, f, q.Edge((j+1)%nq), lim.Min); ok {
				found++
				fn(m)
			}
		}
	}
	return found
}

// CheckEnclosure reports enclosure violations of inner (e.g. a via) within
// outer (e.g. a metal pad): edge pairs whose margin is below min, plus a
// containment failure when any inner vertex escapes outer entirely. The
// returned bool is true when inner is fully contained in outer.
func CheckEnclosure(inner, outer geom.Polygon, min int64, fn func(Marker)) (contained bool, found int) {
	contained = true
	for i := 0; i < inner.NumVertices(); i++ {
		if !outer.ContainsPoint(inner.Vertex(i)) {
			contained = false
			break
		}
	}
	if !contained {
		found++
		fn(Marker{Box: inner.MBR(), Dist: -1})
		return contained, found
	}
	ni, no := inner.NumEdges(), outer.NumEdges()
	for i := 0; i < ni; i++ {
		e := inner.Edge(i)
		for j := 0; j < no; j++ {
			if m, ok := EdgePairEnclosure(e, outer.Edge(j), min); ok {
				found++
				fn(m)
			}
		}
	}
	return contained, found
}

// CheckArea reports whether the polygon violates the minimum area rule.
// minArea2 is twice the minimum area, so the comparison is exact integer
// arithmetic against the Shoelace doubled area.
func CheckArea(p geom.Polygon, minArea2 int64) (Marker, bool) {
	a2 := p.Area2()
	if a2 >= minArea2 {
		return Marker{}, false
	}
	return Marker{Box: p.MBR(), Dist: a2}, true
}

// CheckRectilinear reports whether the polygon violates the rectilinearity
// rule (any non-axis-aligned edge).
func CheckRectilinear(p geom.Polygon) (Marker, bool) {
	if p.IsRectilinear() {
		return Marker{}, false
	}
	return Marker{Box: p.MBR()}, true
}

// EvaluateEnclosure resolves the enclosure rule for one inner shape (via)
// against its candidate outer shapes (metal polygons whose MBR is near the
// via): the via passes when at least one candidate contains it with margin
// >= min on every side. Otherwise, violations of the best candidate — the
// one with the largest worst-case margin, ties broken by candidate order —
// are reported, or an uncovered marker (Dist == -1) when no candidate
// contains the via at all. Enclosure is monotone in metal: adding candidates
// can only improve the result, which is what lets the hierarchical mode
// resolve vias inside cell definitions and reuse the answer per instance.
func EvaluateEnclosure(inner geom.Polygon, outers []geom.Polygon, min int64, fn func(Marker)) (ok bool, found int) {
	bestIdx := -1
	var bestMargin int64 = -1
	for ci, outer := range outers {
		contained := true
		for i := 0; i < inner.NumVertices(); i++ {
			if !outer.ContainsPoint(inner.Vertex(i)) {
				contained = false
				break
			}
		}
		if !contained {
			continue
		}
		margin := worstEnclosureMargin(inner, outer)
		if margin >= min {
			return true, 0
		}
		if margin > bestMargin {
			bestMargin = margin
			bestIdx = ci
		}
	}
	if bestIdx < 0 {
		fn(Marker{Box: inner.MBR(), Dist: -1})
		return false, 1
	}
	_, n := CheckEnclosure(inner, outers[bestIdx], min, fn)
	return false, n
}

// worstEnclosureMargin returns the smallest per-side margin of inner within
// outer across all same-direction parallel edge pairs with shared
// projection. Callers guarantee containment, so at least one pair exists per
// inner edge; a huge sentinel is returned for degenerate inputs.
func worstEnclosureMargin(inner, outer geom.Polygon) int64 {
	const huge = int64(1) << 62
	worst := huge
	ni, no := inner.NumEdges(), outer.NumEdges()
	for i := 0; i < ni; i++ {
		e := inner.Edge(i)
		side := huge
		for j := 0; j < no; j++ {
			f := outer.Edge(j)
			if e.Dir() != f.Dir() || e.ProjectionOverlap(f) == 0 {
				continue
			}
			if !onExteriorSide(e, f.Perp()) {
				continue
			}
			if d := absI64(f.Perp() - e.Perp()); d < side {
				side = d
			}
		}
		if side < worst {
			worst = side
		}
	}
	return worst
}
