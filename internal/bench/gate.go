package bench

import (
	"fmt"
	"strings"
)

// Regression gates for CI: check.sh regenerates the benchmark JSON and
// fails the build when a row shows parallel or cached execution costing
// more than its baseline, or — worse — producing a different report. With
// best-of-interleaved-runs measurement and the shared noise floor, a gate
// failure means a real regression, not scheduler noise.

// Gate returns an error listing every regressed row: a speedup below 1.0
// (Workers=N slower than Workers=1 — the parallel-slower-than-sequential
// bug class) or mismatched reports between worker counts. Rows below the
// noise floor are gated on identity only; a degenerate report (Workers
// resolved to 1) has no rows and passes.
func (r *SpeedupReport) Gate() error {
	var bad []string
	for _, row := range r.Rows {
		if !row.Identical {
			bad = append(bad, fmt.Sprintf("%s/%s: reports differ between worker counts", row.Design, row.Mode))
		}
		if row.Speedup < 1.0 && !row.BelowNoiseFloor {
			bad = append(bad, fmt.Sprintf("%s/%s: speedup %.3f < 1.0 (workers=%d slower than workers=1)",
				row.Design, row.Mode, row.Speedup, r.Workers))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("speedup gate: %d regressed row(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// Gate returns an error listing every regressed row: a headline improvement
// below 1.0 (the geometry cache costing more than it saves) or mismatched
// reports between cache configurations. Rows below the noise floor are gated
// on identity only — their ratio is jitter, not a measurement.
func (r *ReuseReport) Gate() error {
	var bad []string
	for _, row := range r.Rows {
		if !row.Identical {
			bad = append(bad, fmt.Sprintf("%s/%s: reports differ between cache configurations", row.Design, row.Mode))
		}
		if row.Improvement < 1.0 && !row.BelowNoiseFloor {
			bad = append(bad, fmt.Sprintf("%s/%s: improvement %.3f < 1.0 (cache made the run slower)",
				row.Design, row.Mode, row.Improvement))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("reuse gate: %d regressed row(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
