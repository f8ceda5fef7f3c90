package geom

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceNewPolygon is NewPolygon as it was before the slab: a fresh copy
// of the ring, then a fresh slice per normalisation step. Slab.NewPolygon
// does the same steps in place and must produce the same ring or the same
// error.
func referenceNewPolygon(pts []Point) (Polygon, error) {
	if len(pts) < 3 {
		return Polygon{}, fmt.Errorf("geom: polygon needs >= 3 vertices, got %d", len(pts))
	}
	ring := make([]Point, len(pts))
	copy(ring, pts)
	if len(ring) > 3 && ring[0] == ring[len(ring)-1] {
		ring = ring[:len(ring)-1]
	}
	out := ring[:0:0]
	for i, p := range ring {
		if i > 0 && p == out[len(out)-1] {
			continue
		}
		out = append(out, p)
	}
	if len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	if len(out) >= 3 {
		kept := make([]Point, 0, len(out))
		n := len(out)
		for i := 0; i < n; i++ {
			prev, cur, next := out[(i-1+n)%n], out[i], out[(i+1)%n]
			if next.Sub(cur).Cross(cur.Sub(prev)) == 0 {
				continue
			}
			kept = append(kept, cur)
		}
		out = kept
	}
	if len(out) < 3 {
		return Polygon{}, errors.New("geom: polygon degenerates to fewer than 3 vertices")
	}
	p := Polygon{pts: out}
	if p.SignedArea2() > 0 {
		slices.Reverse(p.pts)
	}
	min := 0
	for i, q := range p.pts {
		if q.Less(p.pts[min]) {
			min = i
		}
	}
	p.pts = append(append([]Point(nil), p.pts[min:]...), p.pts[:min]...)
	return p, nil
}

// TestSlabMatchesReference builds random rings — on a tiny grid, so repeated
// vertices, closing vertices, collinear runs and degenerate rings are all
// common — through one shared slab, and requires of every ring the
// reference's polygon or error, an untouched input, and that no polygon
// built earlier in the slab changed.
func TestSlabMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slab := NewSlab(64) // small on purpose: the slab outgrows it many times
	type built struct{ got, want Polygon }
	var all []built
	for iter := 0; iter < 20000; iter++ {
		ring := make([]Point, rng.Intn(9))
		for i := range ring {
			ring[i] = Pt(int64(rng.Intn(4)), int64(rng.Intn(4)))
			if i > 0 && rng.Intn(5) == 0 {
				ring[i] = ring[i-1]
			}
		}
		if len(ring) > 1 && rng.Intn(3) == 0 {
			ring[len(ring)-1] = ring[0]
		}
		orig := slices.Clone(ring)
		before := len(slab.pts)
		got, err := slab.NewPolygon(ring)
		want, wantErr := referenceNewPolygon(ring)
		if !slices.Equal(ring, orig) {
			t.Fatalf("ring %v was modified to %v", orig, ring)
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ring %v: error %v, want %v", ring, err, wantErr)
		}
		if err != nil {
			if len(slab.pts) != before {
				t.Fatalf("ring %v: a rejected ring left %d vertices in the slab", ring, len(slab.pts)-before)
			}
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("ring %v: got %v, want %v", ring, got, want)
		}
		all = append(all, built{got, want})
	}
	for _, b := range all {
		if !b.got.Equal(b.want) {
			t.Fatalf("a later polygon overwrote %v (now %v)", b.want, b.got)
		}
	}
	if len(all) < 1000 {
		t.Fatalf("only %d of the rings were valid polygons; the generator is too degenerate", len(all))
	}
}
