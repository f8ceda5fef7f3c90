package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// A p90 needs ten samples beyond it: below n = 100 it is refused, not
// approximated.
func TestP90RefusedBelow100(t *testing.T) {
	xs := make([]float64, 99)
	if _, err := p90(xs); err == nil {
		t.Fatal("p90 of 99 samples was not refused")
	}
	if got := p90OrZero(xs); got != 0 {
		t.Fatalf("p90OrZero of 99 samples = %v, want 0", got)
	}
	if _, err := p90(append(xs, 0)); err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
}

func TestP90NearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	got, err := p90(xs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 180 {
		t.Fatalf("p90(1..200) = %v, want 180", got)
	}
	if xs[0] != 200 {
		t.Fatal("p90 reordered its input")
	}
}
