package geom

import "fmt"

// EdgeDir classifies the direction of a directed axis-aligned edge. With the
// clockwise vertex convention used by OpenDRC polygons, the interior of the
// polygon lies to the *right* of each directed edge when walking from P0 to
// P1: a North edge has interior to its east, a South edge interior to its
// west, an East edge interior to its south, and a West edge interior to its
// north. The paper relies on exactly this property: "Polygon vertices are
// stored in clockwise order, so that positional relations of edges are
// determined accordingly."
type EdgeDir uint8

// Edge directions.
const (
	DirNorth EdgeDir = iota // P1.Y > P0.Y, vertical
	DirSouth                // P1.Y < P0.Y, vertical
	DirEast                 // P1.X > P0.X, horizontal
	DirWest                 // P1.X < P0.X, horizontal
	DirNone                 // degenerate (P0 == P1) or non-rectilinear
)

var dirNames = [...]string{"N", "S", "E", "W", "?"}

// String implements fmt.Stringer.
func (d EdgeDir) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return "?"
}

// Horizontal reports whether the direction is East or West.
func (d EdgeDir) Horizontal() bool { return d == DirEast || d == DirWest }

// Opposite returns the reversed direction.
func (d EdgeDir) Opposite() EdgeDir {
	switch d {
	case DirNorth:
		return DirSouth
	case DirSouth:
		return DirNorth
	case DirEast:
		return DirWest
	case DirWest:
		return DirEast
	}
	return DirNone
}

// Edge is a directed segment between two polygon vertices. For rectilinear
// polygons every edge is axis-aligned; the checks only ever operate on
// axis-aligned edges (the engine rejects non-rectilinear input to distance
// rules up front, mirroring the paper's rectilinear predicate).
type Edge struct {
	P0, P1 Point
}

// E is shorthand for Edge{Pt(x0,y0), Pt(x1,y1)}.
func E(x0, y0, x1, y1 int64) Edge { return Edge{Pt(x0, y0), Pt(x1, y1)} }

// Dir classifies the edge direction.
func (e Edge) Dir() EdgeDir {
	switch {
	case e.P0.X == e.P1.X && e.P1.Y > e.P0.Y:
		return DirNorth
	case e.P0.X == e.P1.X && e.P1.Y < e.P0.Y:
		return DirSouth
	case e.P0.Y == e.P1.Y && e.P1.X > e.P0.X:
		return DirEast
	case e.P0.Y == e.P1.Y && e.P1.X < e.P0.X:
		return DirWest
	}
	return DirNone
}

// Length returns the Manhattan length of the edge (exact for axis-aligned
// edges).
func (e Edge) Length() int64 { return e.P0.ManhattanDist(e.P1) }

// Reverse returns the edge with endpoints swapped.
func (e Edge) Reverse() Edge { return Edge{e.P1, e.P0} }

// MBR returns the (possibly degenerate) bounding rectangle of the edge.
func (e Edge) MBR() Rect { return R(e.P0.X, e.P0.Y, e.P1.X, e.P1.Y) }

// Transform maps the edge through t.
func (e Edge) Transform(t Transform) Edge {
	return Edge{t.Apply(e.P0), t.Apply(e.P1)}
}

// Lo returns the smaller coordinate of the edge's span along its own axis
// (x-range for horizontal edges, y-range for vertical ones).
func (e Edge) Lo() int64 {
	if e.Dir().Horizontal() {
		return minInt64(e.P0.X, e.P1.X)
	}
	return minInt64(e.P0.Y, e.P1.Y)
}

// Hi returns the larger coordinate of the edge's span along its own axis.
func (e Edge) Hi() int64 {
	if e.Dir().Horizontal() {
		return maxInt64(e.P0.X, e.P1.X)
	}
	return maxInt64(e.P0.Y, e.P1.Y)
}

// Perp returns the edge's fixed coordinate on the perpendicular axis (y for
// horizontal edges, x for vertical ones).
func (e Edge) Perp() int64 {
	if e.Dir().Horizontal() {
		return e.P0.Y
	}
	return e.P0.X
}

// ProjectionOverlap returns the length of the common span of two parallel
// axis-aligned edges projected onto their shared axis; 0 when they do not
// overlap (touching endpoints count as 0). Conditional spacing rules key off
// this "projection length".
func (e Edge) ProjectionOverlap(f Edge) int64 {
	lo := maxInt64(e.Lo(), f.Lo())
	hi := minInt64(e.Hi(), f.Hi())
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("%s->%s[%s]", e.P0, e.P1, e.Dir())
}

// InteriorSide reports the direction pointing from the edge into the
// polygon's interior, assuming the clockwise vertex convention.
func (e Edge) InteriorSide() EdgeDir {
	switch e.Dir() {
	case DirNorth:
		return DirEast
	case DirSouth:
		return DirWest
	case DirEast:
		return DirSouth
	case DirWest:
		return DirNorth
	}
	return DirNone
}
