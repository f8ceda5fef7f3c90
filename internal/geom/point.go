// Package geom provides the integer geometry primitives used throughout
// OpenDRC: points, rectangles, directed edges, rectilinear polygons, and the
// GDSII placement transforms (translation, rotation, mirroring,
// magnification). All coordinates are int64 database units (DBU); with the
// conventional 1 DBU = 1 nm this covers dies far beyond any real reticle.
package geom

import "fmt"

// Point is a location in database units.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p with both coordinates multiplied by k.
func (p Point) Scale(k int64) Point { return Point{p.X * k, p.Y * k} }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) int64 { return p.X*q.Y - p.Y*q.X }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return absInt64(p.X-q.X) + absInt64(p.Y-q.Y)
}

// Less orders points lexicographically by (X, Y); useful as a canonical
// ordering for normalization and deterministic output.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
