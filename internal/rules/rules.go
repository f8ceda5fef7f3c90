// Package rules defines OpenDRC's rule deck and the chaining programming
// interface of the paper's Listing 1: selectors locate the target objects
// (db.layer(19).width()) and predicates state what they must satisfy
// (greater_than(18), is_rectilinear(), ensures(fn)). Rules are plain values,
// and what a kind means is stated here once: the layers a rule reads
// (Inputs), its intra-polygon predicate (CheckPolygon), its reach and
// thresholds, and the violation a marker becomes (Rule.Violation). The
// checkers only choose how to run it.
package rules

import (
	"fmt"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
)

// Kind classifies a design rule.
type Kind int

// Rule kinds.
const (
	Width       Kind = iota // minimum interior width, intra-polygon
	Spacing                 // minimum exterior spacing, inter-polygon (and notches)
	Enclosure               // minimum margin of Layer inside Outer (inter-layer)
	Area                    // minimum polygon area, intra-polygon
	Rectilinear             // all edges axis-aligned, intra-polygon
	Custom                  // user predicate over polygons
)

var kindNames = [...]string{"width", "spacing", "enclosure", "area", "rectilinear", "custom"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Intra reports whether the rule only relates edges of a single polygon,
// enabling the hierarchy pruning of Section IV-C's intra-polygon branch.
func (k Kind) Intra() bool {
	return k == Width || k == Area || k == Rectilinear || k == Custom
}

// Obj is the view of a polygon a Custom predicate receives.
type Obj struct {
	Shape geom.Polygon
	Layer layout.Layer
	// Name is the text of a label on the same layer located on or inside
	// the polygon; empty when none exists (the paper's name predicate).
	Name string
}

// Rule is one design rule. Zero Min with a distance kind is invalid; use the
// builders rather than constructing literals.
type Rule struct {
	ID    string
	Kind  Kind
	Layer layout.Layer
	Outer layout.Layer // enclosure: the other layer
	Min   int64        // threshold: distance, or area (units²)
	Desc  string
	Pred  func(Obj) bool // Custom only

	// PRLLength/PRLMin make a spacing rule conditional on projection
	// length: pairs sharing at least PRLLength of parallel run require
	// PRLMin instead of Min. Zero PRLLength disables the condition.
	PRLLength int64
	PRLMin    int64
}

// WhenProjectionAtLeast upgrades a spacing rule with a parallel-run-length
// condition: edge pairs whose projection overlap is at least length must
// keep min2 (> Min) spacing. Mirrors foundry PRL spacing tables.
func (r Rule) WhenProjectionAtLeast(length, min2 int64) Rule {
	r.PRLLength = length
	r.PRLMin = min2
	return r
}

// SpacingLimit returns the rule's spacing threshold for the check layer.
func (r Rule) SpacingLimit() checks.SpacingLimit {
	return checks.SpacingLimit{Min: r.Min, PRLLength: r.PRLLength, PRLMin: r.PRLMin}
}

// IntraMin returns the threshold an intra-polygon rule checks in the local
// frame of a cell instantiated with magnification mag: a local measure x
// appears globally as x·mag (x·mag² for areas), so the local threshold is
// the ceiling division. Area thresholds come doubled, in the units
// checks.CheckArea compares.
func (r Rule) IntraMin(mag int64) int64 {
	switch r.Kind {
	case Width:
		return ceilDiv(r.Min, mag)
	case Area:
		return ceilDiv(2*r.Min, mag*mag)
	}
	return r.Min
}

// InstanceMarker maps a marker found in a cell's local frame into the frame
// of an instance placed with t, scaling its measured distance by the
// magnification (squared for corner distances and doubled areas).
func (r Rule) InstanceMarker(m checks.Marker, t geom.Transform) checks.Marker {
	m.Box = t.ApplyRect(m.Box)
	m.EdgeA = m.EdgeA.Transform(t)
	m.EdgeB = m.EdgeB.Transform(t)
	if mag := t.Mag; mag > 1 && m.Dist >= 0 {
		if m.Corner || r.Kind == Area {
			m.Dist *= mag * mag
		} else {
			m.Dist *= mag
		}
	}
	return m
}

// Inputs returns the layers whose geometry the rule reads: Layer and, for
// enclosure, Outer.
func (r Rule) Inputs() []layout.Layer {
	if r.Kind == Enclosure {
		return []layout.Layer{r.Layer, r.Outer}
	}
	return []layout.Layer{r.Layer}
}

// CheckPolygon checks one polygon against an intra-polygon rule and emits
// each marker; spacing and enclosure relate several polygons and emit
// nothing here. min is the threshold in p's frame (IntraMin). src is the
// cell polygon p was placed from: a Custom predicate receives its label as
// Obj.Name, looked up in src's own frame (labels transform with their cell),
// and no other kind reads src. Nothing is allocated per polygon.
func (r Rule) CheckPolygon(p geom.Polygon, src layout.PolyRef, min int64, emit func(checks.Marker)) {
	switch r.Kind {
	case Width:
		checks.CheckWidth(p, min, emit)
	case Area:
		if m, bad := checks.CheckArea(p, min); bad {
			emit(m)
		}
	case Rectilinear:
		if m, bad := checks.CheckRectilinear(p); bad {
			emit(m)
		}
	case Custom:
		name := src.Cell.LabelIn(r.Layer, src.Cell.Polys[src.Idx].Shape)
		if !r.Pred(Obj{Shape: p, Layer: r.Layer, Name: name}) {
			emit(checks.Marker{Box: p.MBR()})
		}
	}
}

// Violation is the report entry of marker m of the rule; cell names the
// definition the geometry lives in, or is empty when the checker does not
// attribute it to one.
func (r Rule) Violation(m checks.Marker, cell string) Violation {
	return Violation{Rule: r.ID, Kind: r.Kind, Layer: r.Layer, Marker: m, Cell: cell}
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Named returns a copy of the rule with the given identifier (e.g. "M1.W.1",
// the paper's rule naming scheme).
func (r Rule) Named(id string) Rule {
	r.ID = id
	return r
}

// String implements fmt.Stringer.
func (r Rule) String() string {
	if r.ID != "" {
		return r.ID
	}
	switch r.Kind {
	case Enclosure:
		return fmt.Sprintf("%s.%s.EN(%d)", layout.LayerName(r.Layer), layout.LayerName(r.Outer), r.Min)
	case Custom:
		return fmt.Sprintf("%s.custom(%s)", layout.LayerName(r.Layer), r.Desc)
	default:
		return fmt.Sprintf("%s.%s(%d)", layout.LayerName(r.Layer), r.Kind, r.Min)
	}
}

// Validate reports whether the rule is well formed.
func (r Rule) Validate() error {
	switch r.Kind {
	case Width, Spacing, Area:
		if r.Min <= 0 {
			return fmt.Errorf("rules: %v rule needs a positive minimum, got %d", r.Kind, r.Min)
		}
		if r.PRLLength != 0 || r.PRLMin != 0 {
			if r.Kind != Spacing {
				return fmt.Errorf("rules: projection condition only applies to spacing rules")
			}
			if r.PRLLength <= 0 || r.PRLMin <= r.Min {
				return fmt.Errorf("rules: projection condition needs PRLLength > 0 and PRLMin > Min")
			}
		}
	case Enclosure:
		if r.Min <= 0 {
			return fmt.Errorf("rules: enclosure rule needs a positive minimum, got %d", r.Min)
		}
		if r.Outer == r.Layer {
			return fmt.Errorf("rules: enclosure rule with identical layers %d", r.Layer)
		}
	case Rectilinear:
	case Custom:
		if r.Pred == nil {
			return fmt.Errorf("rules: custom rule %q without predicate", r.Desc)
		}
	default:
		return fmt.Errorf("rules: unknown kind %d", int(r.Kind))
	}
	return nil
}

// Reach returns the interaction distance of the rule: how far beyond an
// object's MBR the rule can relate other geometry. Used for MBR enlargement
// and the row-partition guard.
func (r Rule) Reach() int64 {
	switch r.Kind {
	case Spacing:
		return r.SpacingLimit().Reach()
	case Enclosure:
		return r.Min
	}
	return 0
}

// Selector selects geometry on one layer — the entry point of the chaining
// interface.
type Selector struct {
	layer layout.Layer
}

// Layer starts a rule chain for the given layer, like the paper's
// db.layer(19).
func Layer(l layout.Layer) Selector { return Selector{layer: l} }

// DistanceBuilder finishes a distance-style rule with a threshold predicate.
type DistanceBuilder struct {
	rule Rule
}

// AtLeast requires the selected distance to be >= v.
func (b DistanceBuilder) AtLeast(v int64) Rule {
	b.rule.Min = v
	return b.rule
}

// GreaterThan requires the selected distance to be > v (the paper's
// greater_than(18) reads as width > 18 exclusive; on the integer grid this
// is AtLeast(v+1)).
func (b DistanceBuilder) GreaterThan(v int64) Rule {
	b.rule.Min = v + 1
	return b.rule
}

// Width selects the layer's interior width.
func (s Selector) Width() DistanceBuilder {
	return DistanceBuilder{rule: Rule{Kind: Width, Layer: s.layer}}
}

// Spacing selects the layer's exterior spacing (including notches).
func (s Selector) Spacing() DistanceBuilder {
	return DistanceBuilder{rule: Rule{Kind: Spacing, Layer: s.layer}}
}

// EnclosedBy selects the margin of this layer's shapes inside the outer
// layer's shapes (via-in-metal enclosure).
func (s Selector) EnclosedBy(outer layout.Layer) DistanceBuilder {
	return DistanceBuilder{rule: Rule{Kind: Enclosure, Layer: s.layer, Outer: outer}}
}

// Area selects the polygon area on the layer.
func (s Selector) Area() DistanceBuilder {
	return DistanceBuilder{rule: Rule{Kind: Area, Layer: s.layer}}
}

// PolygonSelector selects whole polygons for shape predicates.
type PolygonSelector struct {
	layer layout.Layer
}

// Polygons selects the layer's polygons.
func (s Selector) Polygons() PolygonSelector { return PolygonSelector{layer: s.layer} }

// AreRectilinear requires every selected polygon to be rectilinear.
func (ps PolygonSelector) AreRectilinear() Rule {
	return Rule{Kind: Rectilinear, Layer: ps.layer}
}

// Ensure attaches a user-defined predicate (the paper's ensures(callable)):
// a violation is reported for every polygon the predicate rejects.
func (ps PolygonSelector) Ensure(desc string, pred func(Obj) bool) Rule {
	return Rule{Kind: Custom, Layer: ps.layer, Desc: desc, Pred: pred}
}

// Violation is one reported design rule violation.
type Violation struct {
	Rule   string // rule identifier
	Kind   Kind
	Layer  layout.Layer
	Marker checks.Marker
	Cell   string // definition cell the geometry lives in, when known
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s @ %v", v.Rule, v.Marker.Box)
}

// Less is the canonical total order on violations: every field participates,
// so two violations compare equal only when they are identical values. This
// matters for determinism — equal violation *multisets* sort into identical
// slices regardless of emission order, which is how reports stay
// bit-identical across worker counts, kernel schedules, and geometry-cache
// configurations even under an unstable sort.
func Less(a, b *Violation) bool {
	if a.Rule != b.Rule {
		return a.Rule < b.Rule
	}
	ab, bb := a.Marker.Box, b.Marker.Box
	switch {
	case ab.XLo != bb.XLo:
		return ab.XLo < bb.XLo
	case ab.YLo != bb.YLo:
		return ab.YLo < bb.YLo
	case ab.XHi != bb.XHi:
		return ab.XHi < bb.XHi
	case ab.YHi != bb.YHi:
		return ab.YHi < bb.YHi
	}
	if a.Marker.Dist != b.Marker.Dist {
		return a.Marker.Dist < b.Marker.Dist
	}
	if a.Marker.Corner != b.Marker.Corner {
		return !a.Marker.Corner
	}
	if c := edgeCompare(a.Marker.EdgeA, b.Marker.EdgeA); c != 0 {
		return c < 0
	}
	if c := edgeCompare(a.Marker.EdgeB, b.Marker.EdgeB); c != 0 {
		return c < 0
	}
	if a.Cell != b.Cell {
		return a.Cell < b.Cell
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Layer < b.Layer
}

// edgeCompare orders edges lexicographically by their endpoints.
func edgeCompare(a, b geom.Edge) int {
	for _, p := range [4][2]int64{
		{a.P0.X, b.P0.X}, {a.P0.Y, b.P0.Y}, {a.P1.X, b.P1.X}, {a.P1.Y, b.P1.Y},
	} {
		if p[0] != p[1] {
			if p[0] < p[1] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Deck is an ordered rule list.
type Deck []Rule

// Validate checks every rule and rejects duplicates: two rules of the same
// kind on the same layer pair with the same projection condition would either
// be redundant or silently contradict each other, so the deck is refused
// outright. Custom rules are exempt — several distinct predicates per layer
// are legitimate.
func (d Deck) Validate() error {
	type ruleKey struct {
		kind      Kind
		layer     layout.Layer
		outer     layout.Layer
		prlLength int64
	}
	seen := make(map[ruleKey]int)
	for i, r := range d {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d (%s): %w", i, r, err)
		}
		if r.Kind == Custom {
			continue
		}
		k := ruleKey{kind: r.Kind, layer: r.Layer, outer: r.Outer, prlLength: r.PRLLength}
		if j, dup := seen[k]; dup {
			return fmt.Errorf("rules: rule %d (%s) duplicates rule %d (%s): one %v rule per layer pair",
				i, r, j, d[j], r.Kind)
		}
		seen[k] = i
	}
	return nil
}

// MaxReach returns the largest interaction distance in the deck, the guard
// for the adaptive row partition.
func (d Deck) MaxReach() int64 {
	var m int64
	for _, r := range d {
		if v := r.Reach(); v > m {
			m = v
		}
	}
	return m
}
