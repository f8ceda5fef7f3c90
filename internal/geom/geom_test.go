package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(-1, 2)
	if got := p.Add(q); got != Pt(2, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(4, 2) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(3); got != Pt(9, 12) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Cross(q); got != 10 {
		t.Errorf("Cross = %d", got)
	}
	if got := p.ManhattanDist(q); got != 6 {
		t.Errorf("ManhattanDist = %d", got)
	}
}

func TestPointLess(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt(0, 0), Pt(1, 0), true},
		{Pt(1, 0), Pt(0, 0), false},
		{Pt(0, 0), Pt(0, 1), true},
		{Pt(0, 1), Pt(0, 0), false},
		{Pt(0, 0), Pt(0, 0), false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := R(10, 20, 0, 5) // corners in any order
	if r != (Rect{0, 5, 10, 20}) {
		t.Fatalf("R normalization failed: %v", r)
	}
	if r.Width() != 10 || r.Height() != 15 {
		t.Errorf("dims = %d x %d", r.Width(), r.Height())
	}
	if r.Area() != 150 {
		t.Errorf("Area = %d", r.Area())
	}
	if r.Empty() {
		t.Error("non-empty rect reported empty")
	}
	if !EmptyRect().Empty() {
		t.Error("EmptyRect not empty")
	}
	if EmptyRect().Area() != 0 {
		t.Error("empty rect area != 0")
	}
}

func TestRectContainsOverlaps(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) || !r.Contains(Pt(5, 5)) {
		t.Error("Contains boundary/interior failed")
	}
	if r.Contains(Pt(11, 5)) || r.Contains(Pt(5, -1)) {
		t.Error("Contains outside point")
	}
	if !r.Overlaps(R(10, 10, 20, 20)) {
		t.Error("touching rects must overlap (zero-distance interaction)")
	}
	if r.Overlaps(R(11, 0, 20, 10)) {
		t.Error("disjoint rects overlap")
	}
	if r.Overlaps(EmptyRect()) || EmptyRect().Overlaps(r) {
		t.Error("empty rect overlaps something")
	}
	if !r.ContainsRect(R(2, 2, 8, 8)) || r.ContainsRect(R(2, 2, 18, 8)) {
		t.Error("ContainsRect failed")
	}
	if !r.ContainsRect(EmptyRect()) {
		t.Error("empty rect should be contained in everything")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a, b := R(0, 0, 10, 10), R(5, 5, 15, 15)
	if got := a.Intersect(b); got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != R(0, 0, 15, 15) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(R(20, 20, 30, 30)); !got.Empty() {
		t.Errorf("disjoint Intersect = %v", got)
	}
	if got := EmptyRect().Union(a); got != a {
		t.Errorf("empty union = %v", got)
	}
}

func TestRectExpandDistance(t *testing.T) {
	r := R(5, 5, 10, 10)
	if got := r.Expand(2); got != R(3, 3, 12, 12) {
		t.Errorf("Expand = %v", got)
	}
	if got := EmptyRect().Expand(5); !got.Empty() {
		t.Errorf("expanded empty = %v", got)
	}
	a, b := R(0, 0, 10, 10), R(14, 25, 20, 30)
	dx, dy := a.Distance(b)
	if dx != 4 || dy != 15 {
		t.Errorf("Distance = %d,%d", dx, dy)
	}
	dx, dy = b.Distance(a)
	if dx != 4 || dy != 15 {
		t.Errorf("Distance not symmetric: %d,%d", dx, dy)
	}
	dx, dy = a.Distance(R(5, 5, 6, 6))
	if dx != 0 || dy != 0 {
		t.Errorf("overlapping Distance = %d,%d", dx, dy)
	}
}

func TestRectPropertyUnionContains(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int32) bool {
		a := R(int64(x0), int64(y0), int64(x1), int64(y1))
		b := R(int64(x2), int64(y2), int64(x3), int64(y3))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyIntersectWithin(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int16) bool {
		a := R(int64(x0), int64(y0), int64(x1), int64(y1))
		b := R(int64(x2), int64(y2), int64(x3), int64(y3))
		i := a.Intersect(b)
		if i.Empty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i) && a.Overlaps(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrientApply(t *testing.T) {
	p := Pt(2, 1)
	cases := []struct {
		o    Orient
		want Point
	}{
		{R0, Pt(2, 1)},
		{R90, Pt(-1, 2)},
		{R180, Pt(-2, -1)},
		{R270, Pt(1, -2)},
		{MXR0, Pt(2, -1)},
		{MXR90, Pt(1, 2)},
		{MXR180, Pt(-2, 1)},
		{MXR270, Pt(-1, -2)},
	}
	for _, c := range cases {
		if got := c.o.Apply(p); got != c.want {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.o, p, got, c.want)
		}
	}
}

func TestOrientComposeMatchesApplication(t *testing.T) {
	pts := []Point{Pt(1, 0), Pt(0, 1), Pt(3, -2), Pt(-5, 7)}
	for o := R0; o <= MXR270; o++ {
		for q := R0; q <= MXR270; q++ {
			c := o.Compose(q)
			for _, p := range pts {
				want := q.Apply(o.Apply(p))
				if got := c.Apply(p); got != want {
					t.Fatalf("(%v∘%v).Apply(%v) = %v, want %v", q, o, p, got, want)
				}
			}
		}
	}
}

func TestOrientInverse(t *testing.T) {
	for o := R0; o <= MXR270; o++ {
		inv := o.Inverse()
		if got := o.Compose(inv); got != R0 {
			t.Errorf("%v.Compose(inverse) = %v", o, got)
		}
		if got := inv.Compose(o); got != R0 {
			t.Errorf("inverse.Compose(%v) = %v", o, got)
		}
	}
}

func TestTransformApply(t *testing.T) {
	tr := Transform{Orient: R90, Mag: 2, Offset: Pt(100, 50)}
	// (3,1) -R90-> (-1,3) -mag2-> (-2,6) -offset-> (98,56)
	if got := tr.Apply(Pt(3, 1)); got != Pt(98, 56) {
		t.Errorf("Apply = %v", got)
	}
	if Identity().Apply(Pt(7, -3)) != Pt(7, -3) {
		t.Error("Identity moved a point")
	}
}

func TestTransformApplyRect(t *testing.T) {
	tr := Transform{Orient: R90, Mag: 1, Offset: Pt(0, 0)}
	r := R(1, 2, 3, 5)
	got := tr.ApplyRect(r)
	// R90: (x,y) -> (-y,x), so x' = -y ∈ [-5,-2] and y' = x ∈ [1,3].
	want := R(-5, 1, -2, 3)
	if got != want {
		t.Errorf("ApplyRect = %v, want %v", got, want)
	}
	if !tr.ApplyRect(EmptyRect()).Empty() {
		t.Error("transformed empty rect not empty")
	}
}

func TestTransformCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		t1 := Transform{
			Orient: Orient(rng.Intn(8)),
			Mag:    int64(1 + rng.Intn(3)),
			Offset: Pt(int64(rng.Intn(100)-50), int64(rng.Intn(100)-50)),
		}
		t2 := Transform{
			Orient: Orient(rng.Intn(8)),
			Mag:    int64(1 + rng.Intn(3)),
			Offset: Pt(int64(rng.Intn(100)-50), int64(rng.Intn(100)-50)),
		}
		c := t1.Compose(t2)
		p := Pt(int64(rng.Intn(40)-20), int64(rng.Intn(40)-20))
		want := t2.Apply(t1.Apply(p))
		if got := c.Apply(p); got != want {
			t.Fatalf("compose mismatch: t1=%v t2=%v p=%v got=%v want=%v", t1, t2, p, got, want)
		}
	}
}

func TestEdgeDir(t *testing.T) {
	cases := []struct {
		e    Edge
		want EdgeDir
	}{
		{E(0, 0, 0, 5), DirNorth},
		{E(0, 5, 0, 0), DirSouth},
		{E(0, 0, 5, 0), DirEast},
		{E(5, 0, 0, 0), DirWest},
		{E(0, 0, 3, 3), DirNone},
		{E(1, 1, 1, 1), DirNone},
	}
	for _, c := range cases {
		if got := c.e.Dir(); got != c.want {
			t.Errorf("%v.Dir() = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEdgeSpanPerp(t *testing.T) {
	e := E(2, 7, 9, 7) // east
	if e.Lo() != 2 || e.Hi() != 9 || e.Perp() != 7 {
		t.Errorf("east edge span: lo=%d hi=%d perp=%d", e.Lo(), e.Hi(), e.Perp())
	}
	v := E(4, 10, 4, 3) // south
	if v.Lo() != 3 || v.Hi() != 10 || v.Perp() != 4 {
		t.Errorf("south edge span: lo=%d hi=%d perp=%d", v.Lo(), v.Hi(), v.Perp())
	}
	if e.Length() != 7 || v.Length() != 7 {
		t.Errorf("lengths %d %d", e.Length(), v.Length())
	}
}

func TestEdgeProjectionOverlap(t *testing.T) {
	a := E(0, 0, 10, 0)
	b := E(5, 3, 15, 3)
	if got := a.ProjectionOverlap(b); got != 5 {
		t.Errorf("overlap = %d", got)
	}
	c := E(10, 3, 20, 3) // touching only
	if got := a.ProjectionOverlap(c); got != 0 {
		t.Errorf("touching overlap = %d", got)
	}
	d := E(11, 3, 20, 3)
	if got := a.ProjectionOverlap(d); got != 0 {
		t.Errorf("disjoint overlap = %d", got)
	}
}

func TestEdgeInteriorSide(t *testing.T) {
	cases := []struct {
		e    Edge
		want EdgeDir
	}{
		{E(0, 0, 0, 5), DirEast},
		{E(0, 5, 0, 0), DirWest},
		{E(0, 0, 5, 0), DirSouth},
		{E(5, 0, 0, 0), DirNorth},
	}
	for _, c := range cases {
		if got := c.e.InteriorSide(); got != c.want {
			t.Errorf("%v.InteriorSide() = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestPolygonNormalization(t *testing.T) {
	// Same square given CW and CCW, rotated start; all must canonicalize equal.
	sq1 := MustPolygon([]Point{Pt(0, 0), Pt(0, 10), Pt(10, 10), Pt(10, 0)}) // CW
	sq2 := MustPolygon([]Point{Pt(10, 0), Pt(10, 10), Pt(0, 10), Pt(0, 0)}) // CCW rotated
	sq3 := MustPolygon([]Point{Pt(10, 10), Pt(10, 0), Pt(0, 0), Pt(0, 10)})
	if !sq1.Equal(sq2) || !sq1.Equal(sq3) {
		t.Errorf("canonicalization failed:\n%v\n%v\n%v", sq1, sq2, sq3)
	}
	if sq1.Vertex(0) != Pt(0, 0) {
		t.Errorf("ring does not start at smallest vertex: %v", sq1)
	}
	if sq1.SignedArea2() >= 0 {
		t.Errorf("canonical ring should be clockwise (negative signed area), got %d", sq1.SignedArea2())
	}
}

func TestPolygonClosedRingAndCollinear(t *testing.T) {
	// Closing vertex and collinear midpoints must be stripped.
	p := MustPolygon([]Point{
		Pt(0, 0), Pt(0, 5), Pt(0, 10), Pt(10, 10), Pt(10, 0), Pt(5, 0), Pt(0, 0),
	})
	if p.NumVertices() != 4 {
		t.Errorf("vertices = %d, want 4 (%v)", p.NumVertices(), p)
	}
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 1)}); err == nil {
		t.Error("expected error for 2-vertex polygon")
	}
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}); err == nil {
		t.Error("expected error for fully collinear polygon")
	}
}

func TestPolygonArea(t *testing.T) {
	sq := RectPolygon(R(0, 0, 10, 10))
	if sq.Area() != 100 || sq.Area2() != 200 {
		t.Errorf("square area = %d (x2=%d)", sq.Area(), sq.Area2())
	}
	// L-shape: 10x10 square minus 5x5 corner = 75.
	l := MustPolygon([]Point{
		Pt(0, 0), Pt(0, 10), Pt(5, 10), Pt(5, 5), Pt(10, 5), Pt(10, 0),
	})
	if l.Area() != 75 {
		t.Errorf("L area = %d, want 75", l.Area())
	}
	if !l.IsRectilinear() {
		t.Error("L-shape must be rectilinear")
	}
}

func TestPolygonMBREdges(t *testing.T) {
	l := MustPolygon([]Point{
		Pt(0, 0), Pt(0, 10), Pt(5, 10), Pt(5, 5), Pt(10, 5), Pt(10, 0),
	})
	if got := l.MBR(); got != R(0, 0, 10, 10) {
		t.Errorf("MBR = %v", got)
	}
	if l.NumEdges() != 6 {
		t.Errorf("edges = %d", l.NumEdges())
	}
	// Every edge must be axis-aligned and edges must chain.
	for i := 0; i < l.NumEdges(); i++ {
		e := l.Edge(i)
		if e.Dir() == DirNone {
			t.Errorf("edge %d not axis aligned: %v", i, e)
		}
		next := l.Edge((i + 1) % l.NumEdges())
		if e.P1 != next.P0 {
			t.Errorf("edges %d,%d do not chain", i, i+1)
		}
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	l := MustPolygon([]Point{
		Pt(0, 0), Pt(0, 10), Pt(5, 10), Pt(5, 5), Pt(10, 5), Pt(10, 0),
	})
	inside := []Point{Pt(1, 1), Pt(4, 9), Pt(9, 1), Pt(2, 5)}
	for _, p := range inside {
		if !l.ContainsPoint(p) {
			t.Errorf("%v should be inside", p)
		}
	}
	boundary := []Point{Pt(0, 0), Pt(0, 5), Pt(5, 7), Pt(7, 5), Pt(10, 3)}
	for _, p := range boundary {
		if !l.ContainsPoint(p) {
			t.Errorf("%v on boundary should count as inside", p)
		}
	}
	outside := []Point{Pt(7, 7), Pt(11, 5), Pt(-1, 0), Pt(6, 10)}
	for _, p := range outside {
		if l.ContainsPoint(p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

func TestPolygonTransformPreservesArea(t *testing.T) {
	l := MustPolygon([]Point{
		Pt(0, 0), Pt(0, 10), Pt(5, 10), Pt(5, 5), Pt(10, 5), Pt(10, 0),
	})
	for o := R0; o <= MXR270; o++ {
		tr := Transform{Orient: o, Mag: 1, Offset: Pt(13, -7)}
		tp := l.Transform(tr)
		if tp.Area() != l.Area() {
			t.Errorf("%v: area %d != %d", o, tp.Area(), l.Area())
		}
		if tp.SignedArea2() >= 0 {
			t.Errorf("%v: transform broke canonical winding", o)
		}
		if !tp.IsRectilinear() {
			t.Errorf("%v: transform broke rectilinearity", o)
		}
	}
	mag := Transform{Orient: R0, Mag: 3}
	if got := l.Transform(mag).Area(); got != l.Area()*9 {
		t.Errorf("mag-3 area = %d, want %d", got, l.Area()*9)
	}
}

func TestPolygonTransformMBRCommutes(t *testing.T) {
	f := func(ox uint8, dx, dy int16) bool {
		tr := Transform{Orient: Orient(ox % 8), Mag: 1, Offset: Pt(int64(dx), int64(dy))}
		l := MustPolygon([]Point{
			Pt(0, 0), Pt(0, 10), Pt(5, 10), Pt(5, 5), Pt(10, 5), Pt(10, 0),
		})
		return l.Transform(tr).MBR() == tr.ApplyRect(l.MBR())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectPolygonRoundTrip(t *testing.T) {
	r := R(3, 4, 17, 22)
	p := RectPolygon(r)
	if p.MBR() != r {
		t.Errorf("MBR = %v, want %v", p.MBR(), r)
	}
	if p.Area() != r.Area() {
		t.Errorf("area = %d, want %d", p.Area(), r.Area())
	}
}

func TestTransformInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		tr := Transform{
			Orient: Orient(rng.Intn(8)),
			Mag:    1,
			Offset: Pt(int64(rng.Intn(200)-100), int64(rng.Intn(200)-100)),
		}
		inv := tr.Inverse()
		p := Pt(int64(rng.Intn(100)-50), int64(rng.Intn(100)-50))
		if got := inv.Apply(tr.Apply(p)); got != p {
			t.Fatalf("inverse failed: %v -> %v", p, got)
		}
		if got := tr.Apply(inv.Apply(p)); got != p {
			t.Fatalf("inverse (other side) failed: %v -> %v", p, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Inverse of magnified transform did not panic")
		}
	}()
	(Transform{Mag: 2}).Inverse()
}
