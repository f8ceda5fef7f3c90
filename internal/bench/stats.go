package bench

import (
	"slices"
	"time"
)

// bestDuration returns the smallest sample; zero for no samples. The
// experiments report the best of several interleaved runs: each sample
// re-executes the identical deterministic work, so the only per-sample
// variance is external contamination — scheduler preemption, a neighbor
// tenant's load, timer coarseness — and contamination is strictly additive
// (nothing ever makes a run finish faster than its uncontended cost). The
// minimum is therefore a consistent estimator of the true cost, while a
// median still lets a sustained throughput dip that covers half the
// measurement window bias one side of an A/B ratio (observed on shared
// hosts: ~2× machine-wide swings lasting whole seconds). Intrinsic costs —
// including GC provoked by the run's own allocations — recur in every
// sample and survive the min.
func bestDuration(s []time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return slices.Min(s)
}

// noiseFloor is the wall time below which a ratio of two best-of-runs on a
// shared host stops being a measurement: a check that finishes inside one
// OS scheduling quantum moves by several percent from run to run however the
// samples are interleaved (observed on a 2-core microVM: 0.92–0.99× on
// identical work at 1–7 ms in the speedup experiment; sequential reuse rows
// of 2–3 ms read 0.82–0.999× in 2 of 20 repeats). One constant serves the
// speedup, reuse and delta experiments; check.sh runs each at a scale where
// the rows its speed gate is about clear it.
const noiseFloor = 10 * time.Millisecond

// belowNoiseFloor reports whether both sides of an A/B row ran under the
// noise floor; the gates check such rows for report identity only.
func belowNoiseFloor(a, b time.Duration) bool { return a < noiseFloor && b < noiseFloor }

// percentileDuration returns the p-quantile (0 < p <= 1) of the samples by
// the nearest-rank method; zero for no samples. Unlike the A/B experiments
// above, the fairness sweep reports tail latency — contamination from the
// co-tenant load is the phenomenon under measurement, not noise to
// discard — so percentiles, not the minimum, are the right summary.
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
