package partition

import (
	"math/rand"
	"testing"

	"opendrc/internal/geom"
)

func BenchmarkRows4k(b *testing.B) {
	boxes := make([]geom.Rect, 4400)
	for i := range boxes {
		y := int64((i % 28) * 270)
		x := int64(i * 37 % 5000)
		boxes[i] = geom.R(x, y+40, x+100, y+230)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rows(boxes, 18, Pigeonhole)
	}
}

// BenchmarkRows443k is shaped like ethmac@4's M1 under M1.S.1: 442 860
// boxes in 330 cell rows of pitch 270, flattened row by row, whose 885 720
// endpoints take 43 001 distinct values — a sort that no longer fits in
// cache.
func BenchmarkRows443k(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	boxes := make([]geom.Rect, 0, 330*1342)
	for r := range int64(330) {
		for i := range int64(1342) {
			x, y := 42*i, 270*r+40+2*rng.Int63n(70)
			boxes = append(boxes, geom.R(x, y, x+18, y+24+2*rng.Int63n(42)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rows(boxes, 18, Pigeonhole)
	}
}
