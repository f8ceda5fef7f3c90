package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// The reference sweepline executor: the straightforward bodies the
// column-based executor in sweep.go replaced, kept test-only. Every thread
// rescans its window from tid+1, materialises both edges of every candidate
// and lets the shared predicate reject it. The differential tests below hold
// the production executor to this one's hit sequence (in order) and to its
// device timeline record for record — thread counts, op totals and modeled
// durations — so a simulator-speed change cannot move a modeled number.
//
// The reference bodies read the six-column layout Edges replaced, also kept
// test-only (refEdges): every edge stores its three points and its polygon
// id, so they index any edge with no polygon at hand and share none of the
// vertex columns' accessors.

// refEdges is the six-column packed layout: per edge P0 (X0, Y0), P1
// (X1, Y1), P2 (X2, Y2) — the vertex after P1 — and the owning polygon.
type refEdges struct {
	X0, Y0, X1, Y1, X2, Y2 []int64
	Poly                   []int32
	PolyStart              []int32
}

func refPack(polys []geom.Polygon) *refEdges {
	r := &refEdges{PolyStart: []int32{0}}
	for pi, p := range polys {
		n := p.NumEdges()
		for i := range n {
			a, b, c := p.Vertex(i), p.Vertex((i+1)%n), p.Vertex((i+2)%n)
			r.X0, r.Y0 = append(r.X0, a.X), append(r.Y0, a.Y)
			r.X1, r.Y1 = append(r.X1, b.X), append(r.Y1, b.Y)
			r.X2, r.Y2 = append(r.X2, c.X), append(r.Y2, c.Y)
			r.Poly = append(r.Poly, int32(pi))
		}
		r.PolyStart = append(r.PolyStart, int32(len(r.X0)))
	}
	return r
}

// packBoth packs polys in both layouts.
func packBoth(polys []geom.Polygon) (*Edges, *refEdges) { return Pack(polys), refPack(polys) }

func (r *refEdges) NumPolys() int { return len(r.PolyStart) - 1 }

func (r *refEdges) PolyEdges(p int) (int, int) { return int(r.PolyStart[p]), int(r.PolyStart[p+1]) }

func (r *refEdges) Edge(i int) geom.Edge {
	return geom.Edge{P0: geom.Pt(r.X0[i], r.Y0[i]), P1: geom.Pt(r.X1[i], r.Y1[i])}
}

func (r *refEdges) NextEdge(i int) geom.Edge {
	return geom.Edge{P0: geom.Pt(r.X1[i], r.Y1[i]), P1: geom.Pt(r.X2[i], r.Y2[i])}
}

// bytes is the six-column layout's size: what Edges.Bytes prices.
func (r *refEdges) bytes() int64 {
	return int64(len(r.X0)+len(r.Y0)+len(r.X1)+len(r.Y1)+len(r.X2)+len(r.Y2))*8 +
		int64(len(r.Poly)+len(r.PolyStart))*4
}

func refViews(s *gpu.Stream, e *refEdges, polys []int32) (horiz, vert []int32, total int) {
	for _, p := range polys {
		lo, hi := e.PolyEdges(int(p))
		total += hi - lo
		for i := lo; i < hi; i++ {
			switch e.Edge(i).Dir() {
			case geom.DirEast, geom.DirWest:
				horiz = append(horiz, int32(i))
			case geom.DirNorth, geom.DirSouth:
				vert = append(vert, int32(i))
			}
		}
	}
	sort.Slice(horiz, func(a, b int) bool {
		ia, ib := horiz[a], horiz[b]
		if e.Y0[ia] != e.Y0[ib] {
			return e.Y0[ia] < e.Y0[ib]
		}
		return ia < ib
	})
	sort.Slice(vert, func(a, b int) bool {
		ia, ib := vert[a], vert[b]
		if e.X0[ia] != e.X0[ib] {
			return e.X0[ia] < e.X0[ib]
		}
		return ia < ib
	})
	if total > 0 {
		logn := int64(1)
		for 1<<logn < total {
			logn++
		}
		s.Launch("sort-edges", total, func(tid int) int64 { return logn * logn })
	}
	return horiz, vert, total
}

func refSweepAxis(s *gpu.Stream, e *refEdges, view []int32, perpOf func(int32) int64, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	if len(view) == 0 {
		return
	}
	ranges := make([]int32, len(view))
	s.Launch("scan-range", len(view), func(tid int) int64 {
		limit := perpOf(view[tid]) + lim.Reach() - 1
		end := tid + 1
		for end < len(view) && perpOf(view[end]) <= limit {
			end++
		}
		ranges[tid] = int32(end)
		return int64(end-tid) + 1
	})
	s.Launch("sweep-check", len(view), func(tid int) int64 {
		i := view[tid]
		ei := e.Edge(int(i))
		var ops int64
		for k := tid + 1; k < int(ranges[tid]); k++ {
			j := view[k]
			ops++
			samePoly := e.Poly[i] == e.Poly[j]
			switch filter {
			case FilterSpacing:
				if samePoly {
					continue
				}
				if m, ok := checks.EdgePairSpacingLim(ei, e.Edge(int(j)), lim); ok {
					c(Hit{Marker: m, A: e.Poly[i], B: e.Poly[j]})
				}
			case FilterWidth:
				if !samePoly {
					continue
				}
				if m, ok := checks.EdgePairWidth(ei, e.Edge(int(j)), lim.Min); ok {
					c(Hit{Marker: m, A: e.Poly[i], B: -1})
				}
			case FilterNotch:
				if !samePoly {
					continue
				}
				if m, ok := checks.EdgePairSpacingLim(ei, e.Edge(int(j)), lim); ok {
					c(Hit{Marker: m, A: e.Poly[i], B: -1})
				}
			}
		}
		return ops
	})
}

func refCornerSweep(s *gpu.Stream, e *refEdges, order []int32, min int64, c Collector) {
	n := len(order)
	if n == 0 {
		return
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if e.X1[ia] != e.X1[ib] {
			return e.X1[ia] < e.X1[ib]
		}
		return ia < ib
	})
	ranges := make([]int32, n)
	s.Launch("corner-scan", n, func(tid int) int64 {
		limit := e.X1[order[tid]] + min - 1
		end := tid + 1
		for end < n && e.X1[order[end]] <= limit {
			end++
		}
		ranges[tid] = int32(end)
		return int64(end-tid) + 1
	})
	s.Launch("corner-check", n, func(tid int) int64 {
		i := order[tid]
		ei, eo := e.Edge(int(i)), e.NextEdge(int(i))
		var ops int64
		for k := tid + 1; k < int(ranges[tid]); k++ {
			j := order[k]
			if e.Poly[i] == e.Poly[j] {
				continue
			}
			ops++
			if m, ok := checks.CornerSpacing(ei, eo, e.Edge(int(j)), e.NextEdge(int(j)), min); ok {
				c(Hit{Marker: m, A: e.Poly[i], B: e.Poly[j]})
			}
		}
		return ops
	})
}

func refSpacingSweepPolys(s *gpu.Stream, e *refEdges, polys []int32, lim checks.SpacingLimit, filter PairFilter, c Collector) {
	horiz, vert, total := refViews(s, e, polys)
	refSweepAxis(s, e, horiz, func(i int32) int64 { return e.Y0[i] }, lim, filter, c)
	refSweepAxis(s, e, vert, func(i int32) int64 { return e.X0[i] }, lim, filter, c)
	if filter == FilterSpacing {
		list := make([]int32, 0, total)
		for _, p := range polys {
			lo, hi := e.PolyEdges(int(p))
			for i := lo; i < hi; i++ {
				list = append(list, int32(i))
			}
		}
		refCornerSweep(s, e, list, lim.Min, c)
	}
}

// starPolygons draws n star-shaped polygons of 3 to 9 vertices at random
// angles and radii around random centres: non-rectilinear shapes with
// diagonal edges everywhere, triangles among them.
func starPolygons(rng *rand.Rand, n int) []geom.Polygon {
	polys := make([]geom.Polygon, 0, n)
	for len(polys) < n {
		cx, cy := rng.Int63n(10_000)-5_000, rng.Int63n(10_000)-5_000
		k := 3 + rng.Intn(7)
		angles := make([]float64, k)
		for i := range angles {
			angles[i] = rng.Float64() * 2 * math.Pi
		}
		slices.Sort(angles)
		pts := make([]geom.Point, k)
		for i, a := range angles {
			r := 10 + rng.Float64()*200
			pts[i] = geom.Pt(cx+int64(r*math.Cos(a)), cy+int64(r*math.Sin(a)))
		}
		if p, err := geom.NewPolygon(pts); err == nil {
			polys = append(polys, p)
		}
	}
	return polys
}

// TestPackedVerticesMatchSixColumnLayout holds the vertex columns to the
// six-column layout they replaced: the same polygon ranges, and for every
// edge the same Edge and NextEdge as the stored P0-P1 and P1-P2 of its
// polygon; PolyFromPacked gives the polygon back, and Bytes still prices
// the six columns. The six synth designs' M1 layers, random rectilinear
// layouts (triangles included) and random star-shaped polygons.
func TestPackedVerticesMatchSixColumnLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	layouts := map[string][]geom.Polygon{
		"rectilinear": randomRectilinear(rng, 400),
		"stars":       starPolygons(rng, 400),
	}
	for _, design := range synth.Designs() {
		lo, _, err := synth.Load(design.Name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range lo.FlattenLayer(layout.LayerM1) {
			layouts[design.Name] = append(layouts[design.Name], pp.Shape)
		}
	}
	for name, polys := range layouts {
		e, ref := packBoth(polys)
		if !slices.Equal(e.PolyStart, ref.PolyStart) || e.Len() != len(ref.X0) {
			t.Fatalf("%s: polygon ranges differ from the six-column layout", name)
		}
		if e.Bytes() != ref.bytes() {
			t.Errorf("%s: Bytes() = %d, the six-column layout is %d", name, e.Bytes(), ref.bytes())
		}
		for p := range e.NumPolys() {
			lo, hi := e.PolyEdges(p)
			for i := lo; i < hi; i++ {
				if int(ref.Poly[i]) != p {
					t.Fatalf("%s: edge %d belongs to polygon %d, the six-column layout says %d", name, i, p, ref.Poly[i])
				}
				if e.Edge(p, i) != ref.Edge(i) || e.NextEdge(p, i) != ref.NextEdge(i) {
					t.Fatalf("%s: polygon %d edge %d: %v then %v, want %v then %v",
						name, p, i, e.Edge(p, i), e.NextEdge(p, i), ref.Edge(i), ref.NextEdge(i))
				}
			}
			// MustPolygon may rotate the ring to its canonical start, so the
			// polygon is compared after the same normalisation.
			pts := make([]geom.Point, polys[p].NumEdges())
			for i := range pts {
				pts[i] = polys[p].Vertex(i)
			}
			if got, want := PolyFromPacked(e, p), geom.MustPolygon(pts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PolyFromPacked(%d) = %v, want %v", name, p, got, want)
			}
		}
	}
}

// launchShape is what of a kernel record a simulator change may never move.
type launchShape struct {
	Name    string
	Threads int
	Ops     int64
	Dur     int64
}

func kernelShapes(d *gpu.Device) []launchShape {
	var out []launchShape
	for _, r := range d.Timeline() {
		if r.Kind == gpu.OpKernel {
			out = append(out, launchShape{r.Name, r.Threads, r.Ops, int64(r.End - r.Start)})
		}
	}
	return out
}

// diffSweep runs the reference executor over ref and the production one
// over e — the same polygons in the two layouts — on the same members and
// compares hits (in order) and kernel records. polys == nil takes the
// whole-buffer entry point.
func diffSweep(t *testing.T, label string, e *Edges, ref *refEdges, polys []int32, lim checks.SpacingLimit, filter PairFilter, sc *Scratch) (hits int) {
	t.Helper()
	refDev := gpu.NewDevice(gpu.GTX1660Ti())
	var want []Hit
	refPolys := polys
	if refPolys == nil {
		for p := 0; p < ref.NumPolys(); p++ {
			refPolys = append(refPolys, int32(p))
		}
	}
	refSpacingSweepPolys(refDev.NewStream("ref"), ref, refPolys, lim, filter, func(h Hit) { want = append(want, h) })

	dev := gpu.NewDevice(gpu.GTX1660Ti())
	s := dev.NewStream("ref")
	var got []Hit
	collect := func(h Hit) { got = append(got, h) }
	switch {
	case polys == nil:
		SpacingSweep(s, e, lim, filter, collect)
	case sc != nil:
		sc.SweepPolys(s, e, polys, lim, filter, collect)
	default:
		SpacingSweepPolys(s, e, polys, lim, filter, collect)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: hit sequence differs: got %d hits, reference %d", label, len(got), len(want))
	}
	if g, w := kernelShapes(dev), kernelShapes(refDev); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: kernel records differ:\n got  %+v\n want %+v", label, g, w)
	}
	return len(want)
}

var diffFilters = []struct {
	name   string
	filter PairFilter
}{{"spacing", FilterSpacing}, {"width", FilterWidth}, {"notch", FilterNotch}}

var diffLimits = []struct {
	name string
	lim  checks.SpacingLimit
}{
	{"plain", checks.Lim(16)}, // on the 5-grid: corner gaps of (5,15) fire, dy = min-1 included
	{"prl", checks.SpacingLimit{Min: 12, PRLLength: 30, PRLMin: 26}},
}

// randomRectilinear draws rectangles, L-shapes, notched (U) shapes and the
// odd triangle on a coarse grid so that abutting, overlapping, facing and
// diagonal configurations — and many equal coordinates, the sort
// tie-break's business — all occur.
func randomRectilinear(rng *rand.Rand, n int) []geom.Polygon {
	polys := make([]geom.Polygon, 0, n)
	for len(polys) < n {
		x, y := int64(rng.Intn(60))*5, int64(rng.Intn(12))*5
		w, h := int64(rng.Intn(8)+2)*5, int64(rng.Intn(8)+2)*5
		var pts []geom.Point
		switch rng.Intn(7) {
		case 0: // a diagonal edge: in no view, but its corners are swept
			pts = []geom.Point{{X: x, Y: y}, {X: x, Y: y + h}, {X: x + w, Y: y}}
		case 1, 2:
			pts = []geom.Point{{X: x, Y: y}, {X: x, Y: y + h}, {X: x + w, Y: y + h}, {X: x + w, Y: y}}
		case 3, 4: // L
			pts = []geom.Point{{X: x, Y: y}, {X: x, Y: y + 2*h}, {X: x + w, Y: y + 2*h}, {X: x + w, Y: y + h},
				{X: x + 2*w, Y: y + h}, {X: x + 2*w, Y: y}}
		default: // U: a notch of width w between two prongs
			pts = []geom.Point{{X: x, Y: y}, {X: x, Y: y + 2*h}, {X: x + w, Y: y + 2*h}, {X: x + w, Y: y + h},
				{X: x + 2*w, Y: y + h}, {X: x + 2*w, Y: y + 2*h}, {X: x + 3*w, Y: y + 2*h}, {X: x + 3*w, Y: y}}
		}
		p, err := geom.NewPolygon(pts)
		if err != nil {
			continue
		}
		polys = append(polys, p)
	}
	return polys
}

// TestSweepMatchesReferenceRandom: random rectilinear layouts, every filter,
// plain and PRL limits, whole-buffer and member-list entry points (fresh and
// warm scratch).
func TestSweepMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var warm Scratch
	hits := make(map[string]int) // per filter: the comparison must not be vacuous
	for trial := 0; trial < 25; trial++ {
		e, ref := packBoth(randomRectilinear(rng, 20+rng.Intn(120)))
		// A member list: a random ascending subset, as partition rows are.
		var members []int32
		for p := 0; p < e.NumPolys(); p++ {
			if rng.Intn(3) > 0 {
				members = append(members, int32(p))
			}
		}
		for _, f := range diffFilters {
			for _, l := range diffLimits {
				label := fmt.Sprintf("trial %d %s/%s", trial, f.name, l.name)
				hits[f.name] += diffSweep(t, label+" whole", e, ref, nil, l.lim, f.filter, nil)
				diffSweep(t, label+" members", e, ref, members, l.lim, f.filter, nil)
				hits[f.name] += diffSweep(t, label+" members/warm", e, ref, members, l.lim, f.filter, &warm)
			}
		}
	}
	for _, f := range diffFilters {
		if hits[f.name] == 0 {
			t.Errorf("%s: the random layouts produced no hits", f.name)
		}
	}
}

// TestSweepMatchesReferenceEmpty pins the degenerate launches: an empty
// buffer and an empty member list launch nothing.
func TestSweepMatchesReferenceEmpty(t *testing.T) {
	diffSweep(t, "empty buffer", Pack(nil), refPack(nil), nil, checks.Lim(10), FilterSpacing, nil)
	e, ref := packBoth(randomRectilinear(rand.New(rand.NewSource(1)), 5))
	diffSweep(t, "empty members", e, ref, []int32{}, checks.Lim(10), FilterSpacing, nil)
}

// TestSweepMatchesReferenceSynth: the six synth designs' M1 layers under the
// deck's own spacing and width limits.
func TestSweepMatchesReferenceSynth(t *testing.T) {
	spacing, err := synth.RuleByID("M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	limits := []struct {
		name string
		lim  checks.SpacingLimit
	}{
		{"deck", spacing.SpacingLimit()},
		{"prl", checks.SpacingLimit{Min: spacing.Min, PRLLength: 4 * spacing.Min, PRLMin: 2 * spacing.Min}},
	}
	var warm Scratch
	for _, design := range synth.Designs() {
		lo, _, err := synth.Load(design.Name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var shapes []geom.Polygon
		for _, pp := range lo.FlattenLayer(layout.LayerM1) {
			shapes = append(shapes, pp.Shape)
		}
		e, ref := packBoth(shapes)
		var members []int32
		for p := 0; p < e.NumPolys(); p += 2 {
			members = append(members, int32(p))
		}
		for _, f := range diffFilters {
			for _, l := range limits {
				label := fmt.Sprintf("%s %s/%s", design.Name, f.name, l.name)
				diffSweep(t, label+" whole", e, ref, nil, l.lim, f.filter, nil)
				diffSweep(t, label+" members", e, ref, members, l.lim, f.filter, &warm)
			}
		}
	}
}

// cellRow lays n cell-like shapes — rectangles, L- and U-shapes, off any
// grid — side by side on one y, abutting or a few units apart, between two rails that
// span the whole row, all shifted by (dx, dy). Equal lo's are everywhere (a
// rectangle's top and bottom edges, an L's two horizontal edges). Every
// horizontal window covers the whole row width while a thread's edge
// overlaps only its neighbours' in x, so the sweep serves it from the
// candidate index; the rails are the index's long list.
func cellRow(rng *rand.Rand, n int, dx, dy int64) []geom.Polygon {
	poly := func(xy ...int64) geom.Polygon {
		pts := make([]geom.Point, 0, len(xy)/2)
		for i := 0; i < len(xy); i += 2 {
			pts = append(pts, geom.Point{X: xy[i] + dx, Y: xy[i+1] + dy})
		}
		return geom.MustPolygon(pts)
	}
	polys := make([]geom.Polygon, 0, n+2)
	x := int64(0)
	for range n {
		w, h := int64(rng.Intn(27)+6), int64(rng.Intn(20)+25)
		switch rng.Intn(4) {
		case 0: // L
			polys = append(polys, poly(x, 0, x, h, x+w, h, x+w, 10, x+2*w, 10, x+2*w, 0))
			x += 2 * w
		case 1: // U: a notch of width w
			polys = append(polys, poly(x, 0, x, h, x+w, h, x+w, 10, x+2*w, 10, x+2*w, h, x+3*w, h, x+3*w, 0))
			x += 3 * w
		default:
			polys = append(polys, poly(x, 0, x, h, x+w, h, x+w, 0))
			x += w
		}
		x += []int64{0, 0, 1, 3, 7, 12}[rng.Intn(6)]
	}
	return append(polys,
		poly(-20, -25, -20, -15, x+20, -15, x+20, -25), // 15 below the cells
		poly(-20, 50, -20, 60, x+20, 60, x+20, 50))     // 6 to 25 above them
}

func allMembers(e *Edges) []int32 {
	members := make([]int32, e.NumPolys())
	for i := range members {
		members[i] = int32(i)
	}
	return members
}

// TestSweepIndexedMatchesReference: rows the candidate index serves, at
// negative coordinates; the same with a second row 2^33 above, so the
// horizontal view's key span passes 32 bits; and with a second row 2^33 to
// the right, which does that for the vertical and corner views. Every
// filter, plain and PRL limits; where the rows share x, the index must
// actually have served threads.
func TestSweepIndexedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	row := cellRow(rng, 300, -1_000_000, -7_000)
	layouts := []struct {
		name    string
		polys   []geom.Polygon
		indexed bool
	}{
		{"row", row, true},
		{"row+above", append(slices.Clone(row), cellRow(rng, 300, -1_000_000, 1<<33)...), true},
		{"row+right", append(slices.Clone(row), cellRow(rng, 300, 1<<33, -7_000)...), false},
	}
	hits := make(map[string]int)
	for _, l := range layouts {
		e, ref := packBoth(l.polys)
		for _, f := range diffFilters {
			for _, lim := range diffLimits {
				label := fmt.Sprintf("%s %s/%s", l.name, f.name, lim.name)
				var sc Scratch
				hits[f.name] += diffSweep(t, label, e, ref, allMembers(e), lim.lim, f.filter, &sc)
				if window, visited := sc.Candidates(); l.indexed && visited >= window {
					t.Errorf("%s: visited %d of %d window candidates: the index served no thread", label, visited, window)
				}
			}
		}
	}
	for _, f := range diffFilters {
		if hits[f.name] == 0 {
			t.Errorf("%s: the rows produced no hits", f.name)
		}
	}
}

// TestCandIndexCoversEveryOverlap checks the index's soundness argument
// directly, on spans that overlap by single units across every bucket
// boundary: every position sits in exactly one bucket or the long list,
// ascending, and every short span that overlaps a thread's lies in the
// thread's bucket range. Trial 0 makes three quarters of the spans 4 long
// and the rest 12, so the width is 12 and the longest short spans are
// exactly as long as a bucket is wide.
func TestCandIndexCoversEveryOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n, maxSpan := 50+rng.Intn(250), int64(1+rng.Intn(40))
		if trial == 0 {
			n = 200
		}
		lo, hi := make([]int64, n), make([]int64, n)
		for i := range lo {
			lo[i] = int64(rng.Intn(400)) - 200
			hi[i] = lo[i] + 1 + rng.Int63n(maxSpan)
			switch {
			case trial == 0 && i%4 == 0:
				hi[i] = lo[i] + 12
			case trial == 0:
				hi[i] = lo[i] + 4
			case rng.Intn(20) == 0:
				hi[i] = lo[i] + 1000 // a rail
			}
		}
		var ix candIndex
		ix.build(lo, hi)
		if trial == 0 && ix.w != 12 {
			t.Fatalf("bucket width %d, want twice the mean span, 12", ix.w)
		}
		seen := make([]int, n)
		for b := 0; b <= ix.long; b++ {
			ks := ix.pos[ix.start[b]:ix.start[b+1]]
			if !slices.IsSorted(ks) {
				t.Fatalf("trial %d: bucket %d not ascending: %v", trial, b, ks)
			}
			for _, k := range ks {
				seen[k]++
				want := ix.long
				if uint64(hi[k]-lo[k]) <= ix.w {
					want = int(uint64(lo[k]-ix.base) / ix.w)
				}
				if b != want {
					t.Fatalf("trial %d: position %d (span %d..%d) in bucket %d, want %d (width %d)", trial, k, lo[k], hi[k], b, want, ix.w)
				}
			}
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("trial %d: position %d indexed %d times", trial, k, c)
			}
		}
		for tid := range lo {
			b0, b1 := ix.buckets(lo[tid], hi[tid])
			for k := range lo {
				if min(hi[k], hi[tid]) <= max(lo[k], lo[tid]) || uint64(hi[k]-lo[k]) > ix.w {
					continue
				}
				if b := int(uint64(lo[k]-ix.base) / ix.w); b < b0 || b > b1 {
					t.Fatalf("trial %d: span %d..%d overlaps %d..%d but its bucket %d is outside [%d, %d] (width %d)",
						trial, lo[k], hi[k], lo[tid], hi[tid], b, b0, b1, ix.w)
				}
			}
		}
	}
}

// fuzzLayout decodes five bytes per polygon, in a small window around the
// origin (so coordinates coincide often): a triangle, rectangle, L or U (as
// randomRectilinear draws them), a rail across the whole window, or a run of
// eight abutting cells on one y. The first byte's high bit moves the polygon
// 2^33 up.
func fuzzLayout(data []byte) []geom.Polygon {
	var polys []geom.Polygon
	add := func(pts ...geom.Point) {
		if p, err := geom.NewPolygon(pts); err == nil {
			polys = append(polys, p)
		}
	}
	rect := func(x, y, w, h int64) {
		add(geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + h}, geom.Point{X: x + w, Y: y + h}, geom.Point{X: x + w, Y: y})
	}
	for ; len(data) >= 5 && len(polys) < 256; data = data[5:] {
		x, y := int64(data[1])-128, int64(data[2]%64)-32
		w, h := int64(data[3]%32+1), int64(data[4]%32+1)
		if data[0]&0x80 != 0 {
			y += 1 << 33
		}
		switch data[0] % 8 {
		case 0:
			add(geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + h}, geom.Point{X: x + w, Y: y})
		case 1, 2:
			rect(x, y, w, h)
		case 3:
			add(geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 2*h}, geom.Point{X: x + w, Y: y + 2*h}, geom.Point{X: x + w, Y: y + h},
				geom.Point{X: x + 2*w, Y: y + h}, geom.Point{X: x + 2*w, Y: y})
		case 4:
			add(geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 2*h}, geom.Point{X: x + w, Y: y + 2*h}, geom.Point{X: x + w, Y: y + h},
				geom.Point{X: x + 2*w, Y: y + h}, geom.Point{X: x + 2*w, Y: y + 2*h}, geom.Point{X: x + 3*w, Y: y + 2*h}, geom.Point{X: x + 3*w, Y: y})
		case 5:
			rect(-160, y, 512, h)
		default:
			for i := range int64(8) {
				rect(x+i*w, y, w, h)
			}
		}
	}
	return polys
}

// FuzzSweepMatchesReference holds the executor to the reference on fuzzed
// layouts (fuzzLayout) and member subsets: bit i%8 of mask[i/8 % len(mask)]
// drops polygon i, an empty mask keeps every polygon. min picks the limit,
// prl makes it conditional.
func FuzzSweepMatchesReference(f *testing.F) {
	row := make([]byte, 0, 5*40)
	for i := range 40 {
		row = append(row, byte(6+8*(i%2)), byte(10*i), 4, byte(i), byte(3+i%5))
	}
	row = append(row, 5, 0, 1, 0, 1, 5, 0, 12, 0, 1)
	f.Add(row, []byte{}, uint8(15), false)
	f.Add(row, []byte{0x5a}, uint8(11), true)
	f.Add(append(row, 0x81, 128, 4, 3, 3, 0x86, 100, 4, 2, 4), []byte{0x01, 0x80}, uint8(15), false)
	f.Add([]byte{1, 120, 10, 3, 3, 1, 124, 12, 3, 3, 3, 110, 8, 2, 2, 4, 140, 4, 1, 4, 0, 118, 15, 4, 4}, []byte{}, uint8(20), true)
	f.Fuzz(func(t *testing.T, layout, mask []byte, min uint8, prl bool) {
		e, ref := packBoth(fuzzLayout(layout))
		var members []int32
		for i := range e.NumPolys() {
			if len(mask) == 0 || mask[i/8%len(mask)]>>(i%8)&1 == 0 {
				members = append(members, int32(i))
			}
		}
		lim := checks.Lim(int64(min%40) + 1)
		if prl {
			lim.PRLLength, lim.PRLMin = 3*lim.Min, lim.Min+10
		}
		var sc Scratch
		for _, f := range diffFilters {
			diffSweep(t, f.name+" whole", e, ref, nil, lim, f.filter, nil)
			diffSweep(t, f.name+" members", e, ref, members, lim, f.filter, &sc)
		}
	})
}

// TestSweepMembersMustAscend: the views are sorted stably from edges
// gathered in member order, so a member list out of ascending order would
// reorder hits; it panics instead.
func TestSweepMembersMustAscend(t *testing.T) {
	e := Pack(randomRectilinear(rand.New(rand.NewSource(3)), 6))
	for _, members := range [][]int32{{2, 1}, {0, 3, 3}, {4, 5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("members %v: no panic", members)
				}
			}()
			SpacingSweepPolys(newStream(), e, members, checks.Lim(16), FilterSpacing, func(Hit) {})
		}()
	}
}

// TestSweepRowSteadyStateAllocs: with warm scratch, simulating a row costs a
// fixed handful of allocations (the launch closures) however many edges the
// row has and whichever way its threads find their candidates — none per
// edge, none per thread.
func TestSweepRowSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	var tape gpu.Tape
	discard := func(Hit) {}
	rows := []struct {
		name  string
		polys []geom.Polygon
	}{
		{"50 random", randomRectilinear(rng, 50)},
		{"800 random", randomRectilinear(rng, 800)},
		{"600 cells", cellRow(rng, 600, 0, 0)},
	}
	var perRow []float64
	for _, r := range rows {
		e := Pack(r.polys)
		polys := allMembers(e)
		run := func() {
			tape.Reset(gpu.GTX1660Ti())
			sc.SweepPolys(&tape, e, polys, checks.Lim(18), FilterSpacing, discard)
		}
		run() // warm the scratch and the tape
		perRow = append(perRow, testing.AllocsPerRun(10, run))
		if window, visited := sc.Candidates(); r.name == "600 cells" && visited >= window {
			t.Errorf("%s: visited %d of %d window candidates: the index served no thread", r.name, visited, window)
		}
	}
	for i, n := range perRow {
		if n > perRow[0] || n > 16 {
			t.Errorf("allocations per row grew with the row: %v for %s, %v for %s", perRow[0], rows[0].name, n, rows[i].name)
		}
	}
}

// refNotch is the notch executor without its short-cut: one thread per
// polygon testing every edge pair of it, however few edges it has, over the
// six-column layout.
func refNotch(s *gpu.Stream, name string, e *refEdges, polys []int32, lim checks.SpacingLimit, c Collector) {
	s.Launch(name, len(polys), func(tid int) int64 {
		p := polys[tid]
		lo, hi := e.PolyEdges(int(p))
		var ops int64
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				ops++
				if m, ok := checks.EdgePairSpacingLim(e.Edge(i), e.Edge(j), lim); ok {
					c(Hit{Marker: m, A: p, B: -1})
				}
			}
		}
		return ops
	})
}

// diffNotch runs NotchBrute over every polygon beside refNotch and compares
// hits (in order) and kernel records.
func diffNotch(t *testing.T, label string, polys []geom.Polygon, lim checks.SpacingLimit) (hits int) {
	t.Helper()
	e, ref := packBoth(polys)
	refDev, dev := gpu.NewDevice(gpu.GTX1660Ti()), gpu.NewDevice(gpu.GTX1660Ti())
	var want, got []Hit
	refNotch(refDev.NewStream("s"), "notch-brute", ref, allMembers(e), lim, func(h Hit) { want = append(want, h) })
	NotchBrute(dev.NewStream("s"), e, lim, func(h Hit) { got = append(got, h) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: hit sequence differs: got %d hits, reference %d", label, len(got), len(want))
	}
	if g, w := kernelShapes(dev), kernelShapes(refDev); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: kernel records differ:\n got  %+v\n want %+v", label, g, w)
	}
	return len(want)
}

// orientAll maps every polygon through all eight orientations, each placed
// at its own offset.
func orientAll(polys []geom.Polygon) []geom.Polygon {
	var out []geom.Polygon
	for o := geom.R0; o <= geom.MXR270; o++ {
		for i, p := range polys {
			out = append(out, p.Transform(geom.Transform{Orient: o, Mag: 1, Offset: geom.Pt(int64(o)*1000, int64(i)*97)}))
		}
	}
	return out
}

// ringsOf builds a polygon from each ring that geom.NewPolygon accepts.
func ringsOf(rings ...[]geom.Point) []geom.Polygon {
	var out []geom.Polygon
	for _, r := range rings {
		if p, err := geom.NewPolygon(r); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// ringXY is a ring from alternating x and y coordinates.
func ringXY(xy ...int64) []geom.Point {
	out := make([]geom.Point, 0, len(xy)/2)
	for i := 0; i < len(xy); i += 2 {
		out = append(out, geom.Pt(xy[i], xy[i+1]))
	}
	return out
}

// TestNotchMatchesReference holds both notch executors to refNotch, which
// tests every pair of every polygon: the executors skip polygons of at most
// four edges, which cannot notch. Rectangles in all eight orientations;
// trapezoids, triangles, zero-area bowties and rings with collinear or
// repeated vertices; random 3- and 4-vertex rings on a coarse grid, random
// rectilinear layouts and star polygons; and U shapes in all eight
// orientations and six-edge pockets, which notch, beside L shapes, which do
// not. The notching families must produce hits, so a short-cut that reached
// the eight-edge U would fail here.
func TestNotchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var rects, us, ls []geom.Polygon
	for range 40 {
		x, y := rng.Int63n(400)-200, rng.Int63n(400)-200
		w, h, g := rng.Int63n(40)+1, rng.Int63n(40)+1, rng.Int63n(30)+1
		rects = append(rects, geom.RectPolygon(geom.R(x, y, x+w, y+h)))
		us = append(us, geom.MustPolygon(ringXY(x, y, x, y+2*h, x+w, y+2*h, x+w, y+h,
			x+w+g, y+h, x+w+g, y+2*h, x+2*w+g, y+2*h, x+2*w+g, y)))
		ls = append(ls, geom.MustPolygon(ringXY(x, y, x, y+2*h, x+w, y+2*h, x+w, y+h, x+w+g, y+h, x+w+g, y)))
	}
	var quads []geom.Polygon
	for len(quads) < 3000 {
		ring := make([]geom.Point, 3+rng.Intn(2))
		for i := range ring {
			ring[i] = geom.Pt(int64(rng.Intn(6))*5, int64(rng.Intn(6))*5)
		}
		quads = append(quads, ringsOf(ring)...)
	}
	families := []struct {
		name    string
		polys   []geom.Polygon
		notches bool
	}{
		{"rectangles", orientAll(rects), false},
		{"trapezoids", orientAll(ringsOf(
			ringXY(0, 0, 5, 10, 15, 10, 20, 0), ringXY(0, 0, 0, 10, 15, 10, 20, 0),
			ringXY(0, 0, 10, 20, 12, 20, 3, 0), ringXY(0, 0, 4, 10, 4, 30, 0, 40))), false},
		{"triangles", orientAll(ringsOf(
			ringXY(0, 0, 0, 10, 10, 0), ringXY(0, 0, 5, 10, 10, 0), ringXY(0, 0, 30, 1, 2, 7))), false},
		{"zero-area and collinear", orientAll(ringsOf(
			ringXY(0, 0, 10, 10, 10, 0, 0, 10), ringXY(0, 0, 0, 10, 20, 0, 20, 10),
			ringXY(0, 0, 0, 5, 0, 10, 5, 10, 10, 10, 10, 0, 0, 0), ringXY(0, 0, 0, 0, 0, 10, 10, 10, 10, 10, 10, 0),
			ringXY(0, 0, 10, 0, 20, 0, 20, 5, 20, 10, 0, 10))), false},
		{"random 3- and 4-vertex", quads, false},
		{"random rectilinear", randomRectilinear(rng, 400), true},
		{"stars", starPolygons(rng, 400), false},
		{"U", orientAll(us), true},
		{"pockets", orientAll(ringsOf(ringXY(0, 0, 0, 30, 30, 20, 10, 20, 10, 10, 30, 10))), true},
		{"L", orientAll(ls), false},
	}
	for _, f := range families {
		hits := 0
		for _, l := range diffLimits {
			hits += diffNotch(t, f.name+"/"+l.name, f.polys, l.lim)
		}
		if f.notches && hits == 0 {
			t.Errorf("%s: no hits", f.name)
		}
	}
}
