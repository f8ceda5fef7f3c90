package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
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

func refViews(s *gpu.Stream, e *Edges, polys []int32) (horiz, vert []int32, total int) {
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

func refSweepAxis(s *gpu.Stream, e *Edges, view []int32, perpOf func(int32) int64, lim checks.SpacingLimit, filter PairFilter, c Collector) {
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

func refCornerSweep(s *gpu.Stream, e *Edges, order []int32, min int64, c Collector) {
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

func refSpacingSweepPolys(s *gpu.Stream, e *Edges, polys []int32, lim checks.SpacingLimit, filter PairFilter, c Collector) {
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

// diffSweep runs the reference and the production executor over the same
// members and compares hits (in order) and kernel records. polys == nil
// takes the whole-buffer entry point.
func diffSweep(t *testing.T, label string, e *Edges, polys []int32, lim checks.SpacingLimit, filter PairFilter, sc *Scratch) (hits int) {
	t.Helper()
	refDev := gpu.NewDevice(gpu.GTX1660Ti())
	var want []Hit
	refPolys := polys
	if refPolys == nil {
		for p := 0; p < e.NumPolys(); p++ {
			refPolys = append(refPolys, int32(p))
		}
	}
	refSpacingSweepPolys(refDev.NewStream("ref"), e, refPolys, lim, filter, func(h Hit) { want = append(want, h) })

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
		e := Pack(randomRectilinear(rng, 20+rng.Intn(120)))
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
				hits[f.name] += diffSweep(t, label+" whole", e, nil, l.lim, f.filter, nil)
				diffSweep(t, label+" members", e, members, l.lim, f.filter, nil)
				hits[f.name] += diffSweep(t, label+" members/warm", e, members, l.lim, f.filter, &warm)
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
	diffSweep(t, "empty buffer", Pack(nil), nil, checks.Lim(10), FilterSpacing, nil)
	e := Pack(randomRectilinear(rand.New(rand.NewSource(1)), 5))
	diffSweep(t, "empty members", e, []int32{}, checks.Lim(10), FilterSpacing, nil)
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
		e := Pack(shapes)
		var members []int32
		for p := 0; p < e.NumPolys(); p += 2 {
			members = append(members, int32(p))
		}
		for _, f := range diffFilters {
			for _, l := range limits {
				label := fmt.Sprintf("%s %s/%s", design.Name, f.name, l.name)
				diffSweep(t, label+" whole", e, nil, l.lim, f.filter, nil)
				diffSweep(t, label+" members", e, members, l.lim, f.filter, &warm)
			}
		}
	}
}

// TestSweepRowSteadyStateAllocs: with warm scratch, simulating a row costs a
// fixed handful of allocations (the launch closures) however many edges the
// row has — none per edge, none per thread.
func TestSweepRowSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	var tape gpu.Tape
	discard := func(Hit) {}
	var perRow []float64
	for _, n := range []int{50, 800} {
		e := Pack(randomRectilinear(rng, n))
		polys := make([]int32, e.NumPolys())
		for i := range polys {
			polys[i] = int32(i)
		}
		run := func() {
			tape.Reset(gpu.GTX1660Ti())
			sc.SweepPolys(&tape, e, polys, checks.Lim(18), FilterSpacing, discard)
		}
		run() // warm the scratch and the tape
		perRow = append(perRow, testing.AllocsPerRun(10, run))
	}
	if perRow[1] > perRow[0] || perRow[1] > 16 {
		t.Errorf("allocations per row grew with the row: %v for 50 polygons, %v for 800", perRow[0], perRow[1])
	}
}
