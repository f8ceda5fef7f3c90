package gdsii

import (
	"fmt"

	"opendrc/internal/geom"
)

// Library is a parsed GDSII library: the syntax's
// ⟨libheader⟩ {⟨structure⟩}* ENDLIB.
type Library struct {
	Version   int16
	Name      string
	UserUnit  float64 // size of one database unit in user units
	MeterUnit float64 // size of one database unit in meters

	Structures []*Structure

	// Warnings collects non-fatal reader diagnostics (skipped records,
	// unsupported STRANS flags), position-tagged for debugging.
	Warnings []string
}

// Structure is a GDSII structure ("cell"): a named list of elements.
type Structure struct {
	Name       string
	Boundaries []Boundary
	Paths      []Path
	Texts      []Text
	SRefs      []SRef
	ARefs      []ARef
}

// NumElements returns the total element count of the structure.
func (s *Structure) NumElements() int {
	return len(s.Boundaries) + len(s.Paths) + len(s.Texts) + len(s.SRefs) + len(s.ARefs)
}

// Boundary is a filled polygon on a layer. XY holds the open ring (the
// GDSII closing vertex is stripped on read and re-added on write).
type Boundary struct {
	Layer    int16
	DataType int16
	XY       []geom.Point
}

// PathType codes the GDSII path end style.
type PathType int16

// Path end styles.
const (
	PathFlush    PathType = 0 // square ends flush with endpoints
	PathRound    PathType = 1 // round ends (approximated as extended squares by the expander)
	PathExtended PathType = 2 // square ends extended by half width
)

// Path is a wire: a centerline with a width, expanded to a polygon by the
// layout builder.
type Path struct {
	Layer    int16
	DataType int16
	PathType PathType
	Width    int32
	XY       []geom.Point
}

// Text is an annotation element. DRC rules may reference it through
// user-defined predicates (the paper's non-empty-name rule on layer 20).
type Text struct {
	Layer    int16
	TextType int16
	Pos      geom.Point
	Str      string
	Trans    Trans
}

// Trans is the STRANS/MAG/ANGLE triple attached to references and texts.
type Trans struct {
	Reflect  bool
	Mag      float64 // 0 means unset (=1.0)
	AngleDeg float64 // counterclockwise degrees; multiples of 90 required downstream
}

// SRef instantiates another structure at a position with a transform — the
// ⟨SREF⟩ construct that makes the format hierarchical.
type SRef struct {
	Name  string
	Trans Trans
	Pos   geom.Point
}

// ARef instantiates a Cols × Rows array of a structure. Per the GDSII spec
// the three XY points are the array origin, the point such that
// (X2-X1)/Cols is the column step, and the point such that (Y3-Y1)/Rows is
// the row step (both after transform).
type ARef struct {
	Name       string
	Trans      Trans
	Cols, Rows int16
	Origin     geom.Point
	ColEnd     geom.Point // origin + Cols * colStep
	RowEnd     geom.Point // origin + Rows * rowStep
}

// Orient converts the Trans rotation/reflection pair into a geom.Orient.
// Only multiples of 90° are representable; other angles return an error
// (OpenDRC requires rectilinear layouts, as does the paper's evaluation).
func (t Trans) Orient() (geom.Orient, error) {
	deg := int(t.AngleDeg)
	if float64(deg) != t.AngleDeg || ((deg % 90) != 0) {
		return geom.R0, fmt.Errorf("gdsii: non-rectilinear ANGLE %v", t.AngleDeg)
	}
	rot := geom.Orient(((deg % 360) + 360) % 360 / 90)
	if t.Reflect {
		return geom.MXR0 + rot, nil
	}
	return rot, nil
}

// Magnification returns the integral magnification, validating that the
// stored MAG is a positive integer (or unset).
func (t Trans) Magnification() (int64, error) {
	if t.Mag == 0 {
		return 1, nil
	}
	m := int64(t.Mag)
	if float64(m) != t.Mag || m < 1 {
		return 0, fmt.Errorf("gdsii: non-integral MAG %v", t.Mag)
	}
	return m, nil
}

// Transform builds the geom.Transform for a reference placed at pos.
func (t Trans) Transform(pos geom.Point) (geom.Transform, error) {
	o, err := t.Orient()
	if err != nil {
		return geom.Transform{}, err
	}
	m, err := t.Magnification()
	if err != nil {
		return geom.Transform{}, err
	}
	return geom.Transform{Orient: o, Mag: m, Offset: pos}, nil
}

// FindStructure returns the structure with the given name, or nil.
func (l *Library) FindStructure(name string) *Structure {
	for _, s := range l.Structures {
		if s.Name == name {
			return s
		}
	}
	return nil
}
