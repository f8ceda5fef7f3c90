package kernels

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
)

func newStream() *gpu.Stream {
	return gpu.NewDevice(gpu.GTX1660Ti()).NewStream("test")
}

func randPolys(rng *rand.Rand, n int) []geom.Polygon {
	polys := make([]geom.Polygon, n)
	for i := range polys {
		x := int64(rng.Intn(2000))
		y := int64(rng.Intn(2000))
		w := int64(5 + rng.Intn(80))
		h := int64(5 + rng.Intn(80))
		if rng.Intn(3) == 0 {
			// L-shape for edge-count variety.
			aw := 1 + w/2
			ah := 1 + h/2
			polys[i] = geom.MustPolygon([]geom.Point{
				geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+aw, y+h),
				geom.Pt(x+aw, y+ah), geom.Pt(x+w, y+ah), geom.Pt(x+w, y),
			})
		} else {
			polys[i] = geom.RectPolygon(geom.R(x, y, x+w, y+h))
		}
	}
	return polys
}

// markerKey canonicalizes a marker for set comparison.
func markerKey(m checks.Marker) string {
	return fmt.Sprintf("%v|%d|%v", m.Box, m.Dist, m.Corner)
}

func sortedKeys(ms []checks.Marker) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = markerKey(m)
	}
	sort.Strings(out)
	// Dedup: the same physical violation may be discovered through
	// different enumeration orders.
	uniq := out[:0]
	for i, k := range out {
		if i == 0 || k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

func eqKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cpuSpacing(polys []geom.Polygon, min int64) []checks.Marker {
	var out []checks.Marker
	for i := range polys {
		for j := i + 1; j < len(polys); j++ {
			checks.CheckSpacing(polys[i], polys[j], min, func(m checks.Marker) {
				out = append(out, m)
			})
		}
	}
	return out
}

func TestPackRoundTrip(t *testing.T) {
	polys := []geom.Polygon{
		geom.RectPolygon(geom.R(0, 0, 10, 10)),
		geom.MustPolygon([]geom.Point{
			geom.Pt(20, 0), geom.Pt(20, 30), geom.Pt(30, 30),
			geom.Pt(30, 10), geom.Pt(40, 10), geom.Pt(40, 0),
		}),
	}
	e := Pack(polys)
	if e.Len() != 10 || e.NumPolys() != 2 {
		t.Fatalf("len=%d polys=%d", e.Len(), e.NumPolys())
	}
	for pi, p := range polys {
		lo, hi := e.PolyEdges(pi)
		if hi-lo != p.NumEdges() {
			t.Fatalf("poly %d edge range %d..%d", pi, lo, hi)
		}
		for k := 0; k < p.NumEdges(); k++ {
			if e.Edge(pi, lo+k) != p.Edge(k) {
				t.Errorf("poly %d edge %d mismatch", pi, k)
			}
			wantNext := p.Edge((k + 1) % p.NumEdges())
			if e.NextEdge(pi, lo+k) != wantNext {
				t.Errorf("poly %d next-edge %d mismatch", pi, k)
			}
		}
	}
	if e.Bytes() <= 0 {
		t.Error("Bytes() must be positive")
	}
}

func TestWidthBruteMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	polys := randPolys(rng, 60)
	e := Pack(polys)
	const min = 12
	var gpuHits []checks.Marker
	WidthBrute(newStream(), e, min, func(h Hit) { gpuHits = append(gpuHits, h.Marker) })
	var cpuHits []checks.Marker
	for _, p := range polys {
		checks.CheckWidth(p, min, func(m checks.Marker) { cpuHits = append(cpuHits, m) })
	}
	if !eqKeys(sortedKeys(gpuHits), sortedKeys(cpuHits)) {
		t.Errorf("width: gpu %d hits vs cpu %d hits", len(gpuHits), len(cpuHits))
	}
}

func TestSpacingSweepMatchesCPU(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		polys := randPolys(rng, 80)
		e := Pack(polys)
		const min = 15
		var gpuHits []checks.Marker
		SpacingSweep(newStream(), e, checks.Lim(min), FilterSpacing, func(h Hit) {
			gpuHits = append(gpuHits, h.Marker)
		})
		want := sortedKeys(cpuSpacing(polys, min))
		got := sortedKeys(gpuHits)
		if !eqKeys(got, want) {
			t.Fatalf("seed %d: sweep %d unique markers vs cpu %d", seed, len(got), len(want))
		}
	}
}

func TestSpacingBruteMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	polys := randPolys(rng, 40)
	e := Pack(polys)
	const min = 15
	var pairs [][2]int32
	for i := 0; i < len(polys); i++ {
		for j := i + 1; j < len(polys); j++ {
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
	}
	var gpuHits []checks.Marker
	SpacingBrute(newStream(), e, pairs, checks.Lim(min), func(h Hit) { gpuHits = append(gpuHits, h.Marker) })
	want := sortedKeys(cpuSpacing(polys, min))
	if got := sortedKeys(gpuHits); !eqKeys(got, want) {
		t.Errorf("brute %d unique markers vs cpu %d", len(got), len(want))
	}
}

func TestSweepWidthFilterMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	polys := randPolys(rng, 60)
	e := Pack(polys)
	const min = 12
	var gpuHits []checks.Marker
	SpacingSweep(newStream(), e, checks.Lim(min), FilterWidth, func(h Hit) {
		gpuHits = append(gpuHits, h.Marker)
	})
	var cpuHits []checks.Marker
	for _, p := range polys {
		checks.CheckWidth(p, min, func(m checks.Marker) { cpuHits = append(cpuHits, m) })
	}
	if !eqKeys(sortedKeys(gpuHits), sortedKeys(cpuHits)) {
		t.Errorf("width sweep mismatch: %d vs %d", len(gpuHits), len(cpuHits))
	}
}

func TestNotchKernelMatchesCPU(t *testing.T) {
	u := geom.MustPolygon([]geom.Point{
		geom.Pt(0, 0), geom.Pt(0, 30), geom.Pt(10, 30), geom.Pt(10, 10),
		geom.Pt(16, 10), geom.Pt(16, 30), geom.Pt(26, 30), geom.Pt(26, 0),
	})
	e := Pack([]geom.Polygon{u})
	var brute, sweep, cpu []checks.Marker
	NotchBrute(newStream(), e, checks.Lim(8), func(h Hit) { brute = append(brute, h.Marker) })
	SpacingSweep(newStream(), e, checks.Lim(8), FilterNotch, func(h Hit) { sweep = append(sweep, h.Marker) })
	checks.CheckNotch(u, 8, func(m checks.Marker) { cpu = append(cpu, m) })
	if !eqKeys(sortedKeys(brute), sortedKeys(cpu)) {
		t.Errorf("notch brute mismatch")
	}
	if !eqKeys(sortedKeys(sweep), sortedKeys(cpu)) {
		t.Errorf("notch sweep mismatch")
	}
}

func TestAreaKernel(t *testing.T) {
	polys := []geom.Polygon{
		geom.RectPolygon(geom.R(0, 0, 10, 10)),  // 100
		geom.RectPolygon(geom.R(20, 0, 25, 5)),  // 25
		geom.RectPolygon(geom.R(40, 0, 60, 60)), // 1200
	}
	e := Pack(polys)
	var hits []Hit
	AreaKernel(newStream(), e, 2*100, func(h Hit) { hits = append(hits, h) })
	if len(hits) != 1 || hits[0].A != 1 {
		t.Errorf("area hits = %+v", hits)
	}
	if hits[0].Marker.Dist != 50 { // doubled area of the 25-unit square
		t.Errorf("dist = %d", hits[0].Marker.Dist)
	}
}

func TestRectilinearKernel(t *testing.T) {
	polys := []geom.Polygon{
		geom.RectPolygon(geom.R(0, 0, 10, 10)),
		geom.MustPolygon([]geom.Point{geom.Pt(20, 0), geom.Pt(30, 0), geom.Pt(30, 10)}),
	}
	e := Pack(polys)
	var hits []Hit
	RectilinearKernel(newStream(), e, func(h Hit) { hits = append(hits, h) })
	if len(hits) != 1 || hits[0].A != 1 {
		t.Errorf("rectilinear hits = %+v", hits)
	}
}

func TestEnclosureKernelMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var vias, metals []geom.Polygon
	for i := 0; i < 50; i++ {
		x := int64(rng.Intn(1500))
		y := int64(rng.Intn(1500))
		vias = append(vias, geom.RectPolygon(geom.R(x, y, x+18, y+18)))
		// Metal pad with randomized (sometimes insufficient) margins.
		ml := x - int64(rng.Intn(8))
		mb := y - int64(rng.Intn(8))
		mr := x + 18 + int64(rng.Intn(8))
		mt := y + 18 + int64(rng.Intn(8))
		metals = append(metals, geom.RectPolygon(geom.R(ml, mb, mr, mt)))
	}
	const min = 5
	ie := Pack(vias)
	oe := Pack(metals)
	var pairs [][2]int32
	for i := range vias {
		pairs = append(pairs, [2]int32{int32(i), int32(i)})
	}
	var gpuHits []checks.Marker
	EnclosureKernel(newStream(), ie, oe, pairs, min, func(h Hit) {
		gpuHits = append(gpuHits, h.Marker)
	})
	var cpuHits []checks.Marker
	for i := range vias {
		checks.CheckEnclosure(vias[i], metals[i], min, func(m checks.Marker) {
			cpuHits = append(cpuHits, m)
		})
	}
	if !eqKeys(sortedKeys(gpuHits), sortedKeys(cpuHits)) {
		t.Errorf("enclosure: gpu %d vs cpu %d", len(gpuHits), len(cpuHits))
	}
}

func TestEnclosureKernelEscape(t *testing.T) {
	via := geom.RectPolygon(geom.R(0, 0, 20, 20))
	metal := geom.RectPolygon(geom.R(10, -5, 40, 25)) // via sticks out left
	ie := Pack([]geom.Polygon{via})
	oe := Pack([]geom.Polygon{metal})
	var hits []Hit
	EnclosureKernel(newStream(), ie, oe, [][2]int32{{0, 0}}, 3, func(h Hit) { hits = append(hits, h) })
	if len(hits) != 1 || hits[0].Marker.Dist != -1 {
		t.Errorf("escape hits = %+v", hits)
	}
}

// TestExecutorSelectionTradeoff captures the engine's executor-selection
// rationale: with MBR-filtered candidate pairs (how the engine drives it),
// the brute executor only touches pairs that can interact, beating the
// sweepline's scan-everything kernels on small rows; a naive all-pairs
// brute enumeration, in contrast, loses to the sweepline once the
// quadratic work dominates.
func TestExecutorSelectionTradeoff(t *testing.T) {
	var polys []geom.Polygon
	for i := 0; i < 600; i++ {
		x := int64(i * 500)
		polys = append(polys, geom.RectPolygon(geom.R(x, 0, x+20, 20)))
	}
	e := Pack(polys)

	run := func(pairs [][2]int32, sweepMode bool) (dur int64) {
		dev := gpu.NewDevice(gpu.GTX1660Ti())
		s := dev.NewStream("s")
		if sweepMode {
			SpacingSweep(s, e, checks.Lim(15), FilterSpacing, func(Hit) {})
		} else {
			SpacingBrute(s, e, pairs, checks.Lim(15), func(Hit) {})
		}
		s.Synchronize()
		return int64(dev.HostClock())
	}

	// MBR-filtered pairs: nothing interacts on this sparse layout, so the
	// brute executor's modeled time is just one (empty) launch.
	var filtered [][2]int32
	for i := 0; i < len(polys); i++ {
		bi := polys[i].MBR().Expand(15)
		for j := i + 1; j < len(polys); j++ {
			if bi.Overlaps(polys[j].MBR()) {
				filtered = append(filtered, [2]int32{int32(i), int32(j)})
			}
		}
	}
	if b, sw := run(filtered, false), run(nil, true); b >= sw {
		t.Errorf("filtered brute %d >= sweep %d (MBR pruning should win on sparse rows)", b, sw)
	}
	// All-pairs brute loses: quadratic edge enumeration dominates.
	var all [][2]int32
	for i := 0; i < len(polys); i++ {
		for j := i + 1; j < len(polys); j++ {
			all = append(all, [2]int32{int32(i), int32(j)})
		}
	}
	if b, sw := run(all, false), run(nil, true); sw >= b {
		t.Errorf("sweep %d >= all-pairs brute %d (sweep should prune)", sw, b)
	}
}

func TestPackEmpty(t *testing.T) {
	e := Pack(nil)
	if e.Len() != 0 || e.NumPolys() != 0 {
		t.Errorf("empty pack: len=%d polys=%d", e.Len(), e.NumPolys())
	}
	SpacingSweep(newStream(), e, checks.Lim(10), FilterSpacing, func(Hit) {
		t.Error("hit on empty buffer")
	})
}
