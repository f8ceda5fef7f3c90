package bench

import (
	"slices"
	"time"
)

// percentileDuration returns the p-quantile (0 < p <= 1) of the samples by
// the nearest-rank method; zero for no samples. The fairness sweep reports
// tail latency — contamination from the co-tenant load is the phenomenon
// under measurement, not noise to discard — so percentiles, not a best-of
// minimum, are the right summary.
func percentileDuration(s []time.Duration, p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	idx := int(p*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
