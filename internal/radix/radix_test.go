package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortMatchesComparator: keys at both ends of int64 (a span that wraps
// int64 and needs every byte) and many ties, over an ascending subset of the
// indices as the callers' gathers pass them, at lengths on both sides of the
// insertion-sort cutoff.
func TestSortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 40, -(1 << 40)}
	for _, n := range []int{0, 1, 2, small - 1, small, 3000} {
		for _, spread := range []int64{1, 300, 1 << 20, 1 << 50} {
			key := make([]int64, n)
			var perm []int32
			for i := range key {
				key[i] = rng.Int63n(spread) - spread/2
				if rng.Intn(50) == 0 {
					key[i] = extremes[rng.Intn(len(extremes))]
				}
				if rng.Intn(3) != 0 {
					perm = append(perm, int32(i))
				}
			}
			want := slices.Clone(perm)
			slices.SortFunc(want, func(a, b int32) int {
				if c := cmp.Compare(key[a], key[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			if got, _ := Sort(perm, nil, key); !slices.Equal(got, want) {
				t.Errorf("n %d spread %d: radix order differs from the (key, index) order", n, spread)
			}
		}
	}
}
