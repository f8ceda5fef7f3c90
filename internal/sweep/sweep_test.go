package sweep

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"opendrc/internal/freelist"
	"opendrc/internal/geom"
)

func pairsOf(boxes []geom.Rect) ([]Pair, Stats) {
	var out []Pair
	st, err := Overlaps(boxes, func(a, b int) { out = append(out, Pair{a, b}) })
	if err != nil {
		panic(err) // unreachable: endpoints are always in the skeleton
	}
	sortPairs(out)
	return out, st
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

func brutePairs(boxes []geom.Rect) []Pair {
	var out []Pair
	BruteForcePairs(boxes, func(a, b int) { out = append(out, Pair{a, b}) })
	sortPairs(out)
	return out
}

func eqPairs(a, b []Pair) bool {
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

func TestOverlapsFigure3Scene(t *testing.T) {
	// A scene in the spirit of the paper's Fig. 3: staggered MBRs where
	// some overlap, some only touch, and some are disjoint.
	boxes := []geom.Rect{
		geom.R(0, 0, 4, 4),     // 0
		geom.R(3, 3, 7, 7),     // 1 overlaps 0
		geom.R(4, 0, 8, 2),     // 2 touches 0 at x=4, overlaps nothing else... touches 1? x[4,8]∩[3,7],y[0,2]∩[3,7]=∅
		geom.R(10, 10, 12, 12), // 3 isolated
		geom.R(7, 7, 9, 9),     // 4 touches 1 at corner (7,7)
	}
	got, st := pairsOf(boxes)
	want := []Pair{{0, 1}, {0, 2}, {1, 4}}
	if !eqPairs(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
	if st.Events != 10 {
		t.Errorf("events = %d, want 10", st.Events)
	}
	if st.MaxLive < 2 {
		t.Errorf("max live = %d", st.MaxLive)
	}
}

func TestOverlapsIdenticalAndNested(t *testing.T) {
	boxes := []geom.Rect{
		geom.R(0, 0, 10, 10),
		geom.R(0, 0, 10, 10), // identical
		geom.R(2, 2, 4, 4),   // nested
	}
	got, _ := pairsOf(boxes)
	want := []Pair{{0, 1}, {0, 2}, {1, 2}}
	if !eqPairs(got, want) {
		t.Errorf("pairs = %v", got)
	}
}

func TestOverlapsEmptyInput(t *testing.T) {
	got, st := pairsOf(nil)
	if len(got) != 0 || st.Events != 0 {
		t.Errorf("nil input: %v %+v", got, st)
	}
	got, _ = pairsOf([]geom.Rect{geom.EmptyRect(), geom.R(0, 0, 1, 1)})
	if len(got) != 0 {
		t.Errorf("empty rect produced pairs: %v", got)
	}
}

func TestOverlapsDegenerate(t *testing.T) {
	// Zero-height rectangles (horizontal edges' MBRs) still interact.
	boxes := []geom.Rect{
		geom.R(0, 5, 10, 5),
		geom.R(5, 5, 15, 5),
		geom.R(20, 5, 30, 5),
	}
	got, _ := pairsOf(boxes)
	if !eqPairs(got, []Pair{{0, 1}}) {
		t.Errorf("pairs = %v", got)
	}
}

func TestOverlapsMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(120)
		boxes := make([]geom.Rect, n)
		for i := range boxes {
			x := int64(rng.Intn(400))
			y := int64(rng.Intn(400))
			boxes[i] = geom.R(x, y, x+int64(rng.Intn(60)), y+int64(rng.Intn(60)))
		}
		got, _ := pairsOf(boxes)
		want := brutePairs(boxes)
		if !eqPairs(got, want) {
			t.Fatalf("trial %d: %d pairs vs %d pairs", trial, len(got), len(want))
		}
	}
}

func TestOverlapsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 40)
		boxes := make([]geom.Rect, n)
		for i := range boxes {
			x := int64(rng.Intn(100))
			y := int64(rng.Intn(100))
			boxes[i] = geom.R(x, y, x+int64(rng.Intn(30)), y+int64(rng.Intn(30)))
		}
		got, _ := pairsOf(boxes)
		return eqPairs(got, brutePairs(boxes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOverlapsBetween(t *testing.T) {
	vias := []geom.Rect{geom.R(2, 2, 4, 4), geom.R(50, 50, 52, 52)}
	metals := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(40, 40, 45, 45)}
	var got []Pair
	OverlapsBetween(vias, metals, func(a, b int) { got = append(got, Pair{a, b}) })
	if !eqPairs(got, []Pair{{0, 0}}) {
		t.Errorf("between pairs = %v", got)
	}
}

func TestOverlapsBetweenIgnoresSameSet(t *testing.T) {
	// Two overlapping boxes in set A, none in B: no pairs.
	as := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(5, 5, 15, 15)}
	var got []Pair
	OverlapsBetween(as, nil, func(a, b int) { got = append(got, Pair{a, b}) })
	if len(got) != 0 {
		t.Errorf("same-set pairs leaked: %v", got)
	}
}

func TestStatsReporting(t *testing.T) {
	boxes := []geom.Rect{geom.R(0, 0, 2, 2), geom.R(1, 1, 3, 3), geom.R(2, 2, 4, 4)}
	_, st := pairsOf(boxes)
	if st.TreeQueries != 3 {
		t.Errorf("queries = %d", st.TreeQueries)
	}
	if st.PairsFound != 3 { // (0,1), (1,2), (0,2) corner touch
		t.Errorf("pairs found = %d", st.PairsFound)
	}
}

// TestQueryCostIsOutputSensitive: a staircase of thin boxes, a few live at
// any y, plus in each y-band one wide box spanning every skeleton key. The
// tree's skeleton holds every x-endpoint, live or not, so a tree that walked
// every node inside a query's range would pay the whole skeleton for each
// wide query; skipping subtrees with no live interval bounds the walk by the
// search paths and the paths to the reported intervals.
func TestQueryCostIsOutputSensitive(t *testing.T) {
	const thin, band = 4096, 64
	var boxes []geom.Rect
	for i := int64(0); i < thin; i++ {
		boxes = append(boxes, geom.R(3*i, i, 3*i+1, i+3))
	}
	for y := int64(10); y < thin; y += band {
		boxes = append(boxes, geom.R(-1, y, 3*thin+1, y+1))
	}
	got, st := pairsOf(boxes)
	if want := brutePairs(boxes); !eqPairs(got, want) {
		t.Fatalf("%d pairs, brute force finds %d", len(got), len(want))
	}
	keys := 2*thin + 2 // distinct x-endpoints
	depth := bits.Len(uint(keys - 1))
	bound := 4 * (st.TreeQueries*depth + st.PairsFound)
	if st.NodesVisited > bound {
		t.Errorf("%d nodes visited for %d queries reporting %d pairs over %d keys; want <= %d",
			st.NodesVisited, st.TreeQueries, st.PairsFound, keys, bound)
	}
}

// fuzzBoxes decodes four bytes per box from a small grid, so empty,
// zero-width, touching, nested and identical boxes are all common: a
// negative extent makes the box empty, and a high x byte repeats the
// previous box.
func fuzzBoxes(data []byte) []geom.Rect {
	var boxes []geom.Rect
	for ; len(data) >= 4; data = data[4:] {
		if data[0] >= 0xf0 && len(boxes) > 0 {
			boxes = append(boxes, boxes[len(boxes)-1])
			continue
		}
		x, y := int64(data[0]%32), int64(data[1]%32)
		w, h := int64(data[2]%12)-1, int64(data[3]%12)-1
		boxes = append(boxes, geom.Rect{XLo: x, YLo: y, XHi: x + w, YHi: y + h})
	}
	return boxes
}

// fuzzMembers picks a row's members from n boxes: each pick byte names a
// box, first occurrence only, in pick order.
func fuzzMembers(pick []byte, n int) []int {
	if n == 0 {
		return nil
	}
	seen := make([]bool, n)
	var members []int
	for _, p := range pick {
		if m := int(p) % n; !seen[m] {
			seen[m] = true
			members = append(members, m)
		}
	}
	return members
}

// FuzzOverlaps holds Overlaps, OverlapsBetween and SweepRow to
// BruteForcePairs, the recycled-scratch entry points included: the second
// sweep on one Scratch reuses the first's buffers, tree node list and slabs.
func FuzzOverlaps(f *testing.F) {
	f.Add([]byte{0, 0, 4, 4, 2, 2, 4, 4, 0xf0, 0, 0, 0, 4, 0, 0, 0}, uint8(1), []byte{3, 0, 2}, uint8(1))
	f.Add([]byte{1, 1, 0, 0, 1, 1, 0, 0, 5, 5, 1, 1, 9, 9, 3, 0}, uint8(2), []byte{1, 2, 3, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint8, pick []byte, reach uint8) {
		boxes := fuzzBoxes(data)
		want := brutePairs(boxes)
		if got, _ := pairsOf(boxes); !eqPairs(got, want) {
			t.Fatalf("Overlaps: %v, brute force %v", got, want)
		}
		var sc Scratch
		for _, bs := range [][]geom.Rect{boxes, boxes[:len(boxes)/2]} {
			var got []Pair
			if _, err := sc.Overlaps(bs, func(a, b int) { got = append(got, Pair{a, b}) }); err != nil {
				t.Fatal(err)
			}
			sortPairs(got)
			if want := brutePairs(bs); !eqPairs(got, want) {
				t.Fatalf("Scratch.Overlaps over %d boxes: %v, brute force %v", len(bs), got, want)
			}
		}
		na := int(split) % (len(boxes) + 1)
		as, bs := boxes[:na], boxes[na:]
		var got, wantB []Pair
		if _, err := OverlapsBetween(as, bs, func(a, b int) { got = append(got, Pair{a, b}) }); err != nil {
			t.Fatal(err)
		}
		for _, pr := range want {
			if pr.A < na && pr.B >= na {
				wantB = append(wantB, Pair{pr.A, pr.B - na})
			}
		}
		sortPairs(got)
		sortPairs(wantB)
		if !eqPairs(got, wantB) {
			t.Fatalf("OverlapsBetween split %d: %v, brute force %v", na, got, wantB)
		}

		// SweepRow on the same Scratch: the members' boxes expanded by the
		// reach, pairs reported as member indices.
		members := fuzzMembers(pick, len(boxes))
		r := int64(reach % 8)
		for _, row := range [][]int{members, members[:len(members)/2]} {
			expanded := make([]geom.Rect, len(row))
			for i, m := range row {
				expanded[i] = boxes[m].Expand(r)
			}
			var wantR, gotR []Pair
			BruteForcePairs(expanded, func(a, b int) { wantR = append(wantR, Pair{row[a], row[b]}) })
			st, err := sc.SweepRow(boxes, row, r)
			if err != nil {
				t.Fatal(err)
			}
			sc.EachPair(func(a, b int) { gotR = append(gotR, Pair{a, b}) })
			if st.PairsFound != len(gotR) {
				t.Fatalf("SweepRow: PairsFound %d, kept %d", st.PairsFound, len(gotR))
			}
			sortPairs(gotR)
			sortPairs(wantR)
			if !eqPairs(gotR, wantR) {
				t.Fatalf("SweepRow members %v reach %d: %v, brute force %v", row, r, gotR, wantR)
			}
		}
	})
}

// TestScratchIsOpaque holds Scratch to the freelist's recycling rule: it is
// recycled across rows, so nothing it hands out may alias its buffers.
func TestScratchIsOpaque(t *testing.T) {
	if err := freelist.Opaque(reflect.TypeOf(Scratch{})); err != nil {
		t.Fatal(err)
	}
}
