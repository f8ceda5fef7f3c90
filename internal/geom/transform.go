package geom

import "fmt"

// Orient is one of the eight axis-preserving orientations of the square
// symmetry group (rotations by multiples of 90° with optional X-axis mirror
// applied first), matching the GDSII STRANS semantics: the reflection about
// the x-axis is applied before the counterclockwise rotation.
type Orient uint8

// The eight orientations. RN = rotate by N degrees CCW; MX prefix = mirror
// about the x-axis (y := -y) first.
const (
	R0 Orient = iota
	R90
	R180
	R270
	MXR0   // mirror, then rotate 0
	MXR90  // mirror, then rotate 90
	MXR180 // mirror, then rotate 180
	MXR270 // mirror, then rotate 270
)

var orientNames = [...]string{"R0", "R90", "R180", "R270", "MXR0", "MXR90", "MXR180", "MXR270"}

// String implements fmt.Stringer.
func (o Orient) String() string {
	if int(o) < len(orientNames) {
		return orientNames[o]
	}
	return fmt.Sprintf("Orient(%d)", uint8(o))
}

// Mirrored reports whether the orientation includes the x-axis reflection.
func (o Orient) Mirrored() bool { return o >= MXR0 }

// Apply transforms the point by the orientation about the origin.
func (o Orient) Apply(p Point) Point {
	if o.Mirrored() {
		p.Y = -p.Y
	}
	switch o % 4 {
	case R90:
		p.X, p.Y = -p.Y, p.X
	case R180:
		p.X, p.Y = -p.X, -p.Y
	case R270:
		p.X, p.Y = p.Y, -p.X
	}
	return p
}

// Compose returns the orientation equivalent to applying o first, then q.
func (o Orient) Compose(q Orient) Orient {
	// Work in the dihedral group D4: o = m^a r^i, q = m^b r^j with
	// r·m = m·r^-1. Applying o then q yields m^(a xor b) r^(±i+j).
	oi, qi := int(o%4), int(q%4)
	om, qm := o.Mirrored(), q.Mirrored()
	var rot int
	if qm {
		// q mirrors after o's rotation: m r^i = r^-i m, so rotation flips.
		rot = (qi - oi + 8) % 4
	} else {
		rot = (qi + oi) % 4
	}
	mir := om != qm
	res := Orient(rot)
	if mir {
		res += MXR0
	}
	return res
}

// Inverse returns the orientation that undoes o.
func (o Orient) Inverse() Orient {
	if o.Mirrored() {
		return o // mirror-rotations are involutions in D4
	}
	return Orient((4 - int(o)) % 4)
}

// Transform is a GDSII placement: optional mirror+rotation, integral
// magnification, then translation. OpenDRC restricts magnification to
// integers ≥ 1 (non-integral magnification would leave the integer grid) and
// rotation to multiples of 90° (rectilinear layouts stay rectilinear).
type Transform struct {
	Orient Orient
	Mag    int64 // magnification; 0 is treated as 1
	Offset Point
}

// Identity returns the identity transform.
func Identity() Transform { return Transform{Mag: 1} }

// Translate returns a pure-translation transform.
func Translate(p Point) Transform { return Transform{Mag: 1, Offset: p} }

// Magnification returns the effective magnification (0 ⇒ 1).
func (t Transform) Magnification() int64 {
	if t.Mag == 0 {
		return 1
	}
	return t.Mag
}

// Apply maps a point through the transform.
func (t Transform) Apply(p Point) Point {
	p = t.Orient.Apply(p)
	m := t.Magnification()
	if m != 1 {
		p = p.Scale(m)
	}
	return p.Add(t.Offset)
}

// ApplyRect maps a rectangle through the transform; the result is the exact
// image since the transform is axis-preserving.
func (t Transform) ApplyRect(r Rect) Rect {
	if r.Empty() {
		return EmptyRect()
	}
	a := t.Apply(Point{r.XLo, r.YLo})
	b := t.Apply(Point{r.XHi, r.YHi})
	return R(a.X, a.Y, b.X, b.Y)
}

// Compose returns the transform equivalent to applying t first, then u:
// (u ∘ t)(p) = u(t(p)).
func (t Transform) Compose(u Transform) Transform {
	return Transform{
		Orient: t.Orient.Compose(u.Orient),
		Mag:    t.Magnification() * u.Magnification(),
		Offset: u.Apply(t.Offset),
	}
}

// PreservesDistances reports whether edge-to-edge distances measured in the
// cell's frame survive the transform unchanged — the invariance condition
// for reusing intra-cell check results in the hierarchy pruning pass. All
// eight orientations preserve distances; magnification does not.
func (t Transform) PreservesDistances() bool { return t.Magnification() == 1 }

// String implements fmt.Stringer.
func (t Transform) String() string {
	return fmt.Sprintf("T{%s mag=%d off=%s}", t.Orient, t.Magnification(), t.Offset)
}

// Inverse returns the transform undoing t. Only defined for magnification 1
// (magnified placements are not invertible on the integer grid); it panics
// otherwise, which callers prevent via the engine's magnification
// restriction for inter-polygon rules.
func (t Transform) Inverse() Transform {
	if t.Magnification() != 1 {
		panic("geom: Inverse of magnified transform")
	}
	inv := t.Orient.Inverse()
	return Transform{
		Orient: inv,
		Mag:    1,
		Offset: inv.Apply(t.Offset).Scale(-1),
	}
}
