package geom

import (
	"errors"
	"fmt"
	"slices"
)

// Polygon is a simple polygon stored as its vertex ring without repeating
// the first vertex at the end (the GDSII closing point is stripped on
// parse). OpenDRC normalizes polygons to clockwise order with the
// lexicographically smallest vertex first, so isomorphic polygons compare
// equal and the edge-relation conventions of the checks hold.
type Polygon struct {
	pts []Point
}

// NewPolygon builds a polygon from the given ring. The ring is defensively
// copied and normalized to canonical clockwise order. At least 3 vertices
// are required; collinear duplicate vertices are merged.
func NewPolygon(pts []Point) (Polygon, error) {
	s := Slab{pts: make([]Point, 0, len(pts))}
	return s.NewPolygon(pts)
}

// Slab is a vertex arena: the polygons built through it are stored back to
// back in one array, so loading a cell costs one allocation however many
// polygons it holds. Polygons never write to their vertices after
// construction, so sharing the array is invisible to their users.
type Slab struct {
	pts []Point
}

// NewSlab returns a slab with room for n vertices. A slab that outgrows its
// room moves to a larger array; the polygons built so far keep the old one.
func NewSlab(n int) *Slab { return &Slab{pts: make([]Point, 0, n)} }

// NewPolygon is the package-level NewPolygon storing into the slab: the ring
// is copied (never modified), stripped of a repeated closing vertex, of
// repeated vertices and of vertices that are not corners, and rewritten to
// clockwise order starting at the lexicographically smallest vertex. On
// error the slab is unchanged.
func (s *Slab) NewPolygon(ring []Point) (Polygon, error) {
	if len(ring) < 3 {
		return Polygon{}, fmt.Errorf("geom: polygon needs >= 3 vertices, got %d", len(ring))
	}
	start := len(s.pts)
	for _, p := range ring {
		if n := len(s.pts); n == start || p != s.pts[n-1] {
			s.pts = append(s.pts, p)
		}
	}
	out := s.pts[start:]
	if len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	// Keep the vertices whose incoming and outgoing edges are not collinear,
	// judged against their neighbours in out, compacting in place: position
	// k <= i is written only after out[i] has been read, and the two reads
	// that reach behind the write cursor (the previous vertex, and the first
	// as the last one's successor) come from saved copies.
	k := 0
	if n := len(out); n >= 3 {
		first, prev := out[0], out[n-1]
		for i, cur := range out {
			next := first
			if i+1 < n {
				next = out[i+1]
			}
			if next.Sub(cur).Cross(cur.Sub(prev)) != 0 {
				out[k] = cur
				k++
			}
			prev = cur
		}
	}
	if k < 3 {
		s.pts = s.pts[:start]
		return Polygon{}, errors.New("geom: polygon degenerates to fewer than 3 vertices")
	}
	s.pts = s.pts[:start+k]
	p := Polygon{pts: s.pts[start : start+k : start+k]}
	p.normalize()
	return p, nil
}

// MustPolygon is NewPolygon that panics on error; for tests and literals.
// The panic is deliberate and stays: callers pass compile-time-constant
// vertex lists (test fixtures, RectPolygon's four corners), so an error
// here is a programming bug, not an input condition. Code paths that build
// polygons from untrusted data (GDSII parsing, synthesis) go through
// NewPolygon and propagate the error; the engine additionally recovers
// any stray panic per rule into a degraded report rather than crashing.
func MustPolygon(pts []Point) Polygon {
	p, err := NewPolygon(pts)
	if err != nil {
		panic(err)
	}
	return p
}

// RectPolygon returns the 4-vertex polygon covering r.
func RectPolygon(r Rect) Polygon {
	c := r.Corners()
	return MustPolygon(c[:])
}

// normalize rewrites the ring, in place, to clockwise order starting at the
// lexicographically smallest vertex.
func (p *Polygon) normalize() {
	if p.SignedArea2() > 0 { // counterclockwise ⇒ reverse
		slices.Reverse(p.pts)
	}
	min := 0
	for i, q := range p.pts {
		if q.Less(p.pts[min]) {
			min = i
		}
	}
	if min != 0 { // rotate left by min: reverse both parts, then the whole
		slices.Reverse(p.pts[:min])
		slices.Reverse(p.pts[min:])
		slices.Reverse(p.pts)
	}
}

// NumVertices returns the vertex count.
func (p Polygon) NumVertices() int { return len(p.pts) }

// Vertex returns the i-th vertex of the canonical ring.
func (p Polygon) Vertex(i int) Point { return p.pts[i] }

// Vertices returns a copy of the canonical ring.
func (p Polygon) Vertices() []Point {
	out := make([]Point, len(p.pts))
	copy(out, p.pts)
	return out
}

// NumEdges returns the edge count (== vertex count for a closed ring).
func (p Polygon) NumEdges() int { return len(p.pts) }

// Edge returns the i-th directed edge, from vertex i to vertex i+1 mod n.
func (p Polygon) Edge(i int) Edge {
	n := len(p.pts)
	return Edge{p.pts[i], p.pts[(i+1)%n]}
}

// SignedArea2 returns twice the signed area by the Shoelace Theorem:
// positive for counterclockwise rings, negative for clockwise. Working with
// the doubled value keeps everything in exact integer arithmetic.
func (p Polygon) SignedArea2() int64 {
	var s int64
	n := len(p.pts)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += p.pts[i].Cross(p.pts[j])
	}
	return s
}

// Area2 returns twice the (positive) enclosed area. The minimum-area check
// compares doubled areas against doubled thresholds so no precision is lost.
func (p Polygon) Area2() int64 {
	s := p.SignedArea2()
	if s < 0 {
		return -s
	}
	return s
}

// Area returns the enclosed area (exact when the doubled area is even, which
// always holds for rectilinear polygons).
func (p Polygon) Area() int64 { return p.Area2() / 2 }

// MBR returns the bounding rectangle of the polygon.
func (p Polygon) MBR() Rect { return RectFromPoints(p.pts) }

// IsRectilinear reports whether every edge is axis-aligned — the paper's
// is_rectilinear predicate.
func (p Polygon) IsRectilinear() bool {
	for i := range p.pts {
		if p.Edge(i).Dir() == DirNone {
			return false
		}
	}
	return true
}

// Transform maps the polygon through t. Mirror transforms flip the winding
// direction, so the ring is reversed to stay clockwise; the canonical
// smallest-vertex start is *not* re-established (edge sets, areas, MBRs and
// all checks are invariant to the ring's starting vertex, and skipping the
// rotation keeps instance flattening cheap). Use Equal only on polygons
// built by NewPolygon.
func (p Polygon) Transform(t Transform) Polygon {
	out := make([]Point, len(p.pts))
	p.transformInto(out, t)
	return Polygon{pts: out}
}

// Transform is Polygon.Transform storing the image into the slab: the same
// ring, carved from the slab's array after the polygons built before it.
func (s *Slab) Transform(p Polygon, t Transform) Polygon {
	start, end := len(s.pts), len(s.pts)+len(p.pts)
	s.pts = slices.Grow(s.pts, len(p.pts))[:end]
	out := s.pts[start:end:end]
	p.transformInto(out, t)
	return Polygon{pts: out}
}

// Points returns the slab's array: every vertex stored so far, each
// polygon's ring after the one built before it.
func (s *Slab) Points() []Point { return s.pts }

// transformInto writes p's image under t into out (len(p.pts) long),
// reversed when t mirrors.
func (p Polygon) transformInto(out []Point, t Transform) {
	if t.Orient.Mirrored() {
		n := len(p.pts)
		for i, q := range p.pts {
			out[n-1-i] = t.Apply(q)
		}
	} else {
		for i, q := range p.pts {
			out[i] = t.Apply(q)
		}
	}
}

// ContainsPoint reports whether q lies inside or on the boundary of the
// polygon, via the crossing-number method specialized for rectilinear
// polygons (exact integer arithmetic).
func (p Polygon) ContainsPoint(q Point) bool {
	inside := false
	n := len(p.pts)
	for i := 0; i < n; i++ {
		a, b := p.pts[i], p.pts[(i+1)%n]
		// Boundary test for axis-aligned segments.
		if a.X == b.X && q.X == a.X && q.Y >= minInt64(a.Y, b.Y) && q.Y <= maxInt64(a.Y, b.Y) {
			return true
		}
		if a.Y == b.Y && q.Y == a.Y && q.X >= minInt64(a.X, b.X) && q.X <= maxInt64(a.X, b.X) {
			return true
		}
		// Ray cast to +x: count crossings of vertical edges.
		if (a.Y > q.Y) != (b.Y > q.Y) {
			// For rectilinear polygons only vertical edges can satisfy
			// the straddle condition; the x intersection is a.X == b.X.
			// Allow the general case anyway via exact rational compare:
			// x = a.X + (q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			num := (q.Y-a.Y)*(b.X-a.X) + a.X*(b.Y-a.Y)
			den := b.Y - a.Y
			// q.X < x  ⇔  q.X*den < num  (careful with sign of den)
			if den > 0 {
				if q.X*den < num {
					inside = !inside
				}
			} else {
				if q.X*den > num {
					inside = !inside
				}
			}
		}
	}
	return inside
}

// Equal reports whether two polygons have identical canonical rings.
func (p Polygon) Equal(q Polygon) bool {
	if len(p.pts) != len(q.pts) {
		return false
	}
	for i := range p.pts {
		if p.pts[i] != q.pts[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (p Polygon) String() string {
	return fmt.Sprintf("Polygon%v", p.pts)
}
