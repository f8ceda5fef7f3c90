package main

import (
	"fmt"
	"sort"
	"time"
)

// minTailSamples is the smallest sample count at which a p90 is reported:
// a percentile needs at least ten samples beyond it to mean anything, so
// p90 needs n >= 100 (choosing-metrics guide, section 1).
const minTailSamples = 100

// median returns the middle value of xs (mean of the two middle values for
// even n), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 returns the nearest-rank 90th percentile of xs. It refuses — returns
// an error — below minTailSamples, so a tail is never reported from a
// sample too small to have one.
func p90(xs []float64) (float64, error) {
	if len(xs) < minTailSamples {
		return 0, fmt.Errorf("p90 needs n >= %d, have %d", minTailSamples, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (len(s)*90 + 99) / 100 // ceil(0.9 n), 1-based
	return s[rank-1], nil
}

// p90OrZero is p90 for per-layer reporting, where a refused tail reads 0
// ("not measured") instead of failing the run.
func p90OrZero(xs []float64) float64 {
	v, err := p90(xs)
	if err != nil {
		return 0
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samples accumulates one latency class in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }
