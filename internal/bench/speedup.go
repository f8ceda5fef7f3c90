package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// Multi-core speedup experiment: the full standard deck on every synth
// design in both engine modes, Workers=1 versus Workers=N, reporting
// measured wall-clock time. Beyond the speedup itself, every row
// cross-checks that the two runs produced the identical report (violations
// and scheduling counters), which the engine guarantees by construction —
// including the parallel mode's geometry-cache and device-residency
// counters, which are schedule-independent.

// SpeedupRow compares Workers=1 and Workers=N on one design in one mode.
type SpeedupRow struct {
	Design     string  `json:"design"`
	Mode       string  `json:"mode"`
	Wall1US    int64   `json:"wall_workers1_us"`
	WallNUS    int64   `json:"wall_workersN_us"`
	Speedup    float64 `json:"speedup"`
	Violations int     `json:"violations"`
	// Identical is true when both worker counts produced byte-identical
	// sorted violations and equal Stats counters.
	Identical bool `json:"reports_identical"`
	// BelowNoiseFloor is true when both sides ran for less than noiseFloor:
	// the ratio is then scheduler jitter, not the worker pool, so the gate
	// checks only report identity on such rows.
	BelowNoiseFloor bool `json:"below_noise_floor,omitempty"`
}

// SpeedupReport is the whole experiment, serialized to BENCH_workers.json.
type SpeedupReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Scale      float64 `json:"scale"`
	Runs       int     `json:"runs_per_cell"`
	// Degenerate is set, and Rows left empty, when Workers resolved to 1 (a
	// single-CPU host): both sides of every row would be the same
	// configuration, so there is no speedup to measure and the report says
	// so once instead of emitting a table of jitter.
	Degenerate string       `json:"degenerate_config,omitempty"`
	Rows       []SpeedupRow `json:"rows"`
}

// speedupSample checks the full standard deck on lo once with the given
// mode and worker count.
func speedupSample(ctx context.Context, lo *layout.Layout, mode core.Mode, workers int) (*core.Report, error) {
	eng := core.New(core.Options{Mode: mode, Workers: workers})
	if err := eng.AddRules(synth.Deck()...); err != nil {
		return nil, err
	}
	return eng.CheckContext(ctx, lo)
}

// speedupPair measures Workers=1 against Workers=N with interleaved samples
// (1, N, 1, N, …) and per-side best-of-runs. Interleaving means slow drift —
// thermal throttling, a background build — lands on both sides instead of
// biasing whichever configuration happened to run last; taking each side's
// minimum discards the external contamination that single-run ratios turned
// into phantom sub-1.0 "regressions" (see bestDuration). Reports are
// deterministic per configuration, so the first sample of each side serves
// for the identity cross-check.
func speedupPair(ctx context.Context, lo *layout.Layout, mode core.Mode, workers, runs int) (rep1, repN *core.Report, wall1, wallN time.Duration, err error) {
	w1 := make([]time.Duration, 0, runs)
	wN := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		// Collect before each sample: otherwise the garbage of the previous
		// sample — the *other* configuration — is collected inside this
		// sample's measured window, a systematic bias interleaving alone
		// cannot remove.
		runtime.GC()
		r1, err := speedupSample(ctx, lo, mode, 1)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("workers=1: %w", err)
		}
		w1 = append(w1, r1.HostWall)
		if rep1 == nil {
			rep1 = r1
		}
		runtime.GC()
		rN, err := speedupSample(ctx, lo, mode, workers)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("workers=%d: %w", workers, err)
		}
		wN = append(wN, rN.HostWall)
		if repN == nil {
			repN = rN
		}
	}
	return rep1, repN, bestDuration(w1), bestDuration(wN), nil
}

// Speedup runs the experiment over the given layouts (use Layouts(scale)).
// workers <= 0 selects GOMAXPROCS; runs is the repetitions per cell
// (the best of the interleaved runs is reported), at least 1.
func Speedup(layouts map[string]*layout.Layout, workers, runs int, scale float64) (*SpeedupReport, error) {
	return SpeedupContext(context.Background(), layouts, workers, runs, scale) //odrc:allow ctxflow — context-free convenience wrapper, delegates to the Context variant
}

// SpeedupContext is Speedup under a context; cancellation aborts between
// runs.
func SpeedupContext(ctx context.Context, layouts map[string]*layout.Layout, workers, runs int, scale float64) (*SpeedupReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if runs < 1 {
		runs = 1
	}
	out := &SpeedupReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Scale:      scale,
		Runs:       runs,
	}
	if workers == 1 {
		out.Degenerate = "workers resolved to 1: both sides of every row would run the same configuration, so no row was measured"
		return out, nil
	}
	for _, mode := range []core.Mode{core.Sequential, core.Parallel} {
		for _, design := range DesignNames() {
			lo := layouts[design]
			if lo == nil {
				continue
			}
			rep1, repN, wall1, wallN, err := speedupPair(ctx, lo, mode, workers, runs)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", design, mode, err)
			}
			row := SpeedupRow{
				Design:     design,
				Mode:       mode.String(),
				Wall1US:    wall1.Microseconds(),
				WallNUS:    wallN.Microseconds(),
				Violations: len(rep1.Violations),
				Identical: reflect.DeepEqual(rep1.Violations, repN.Violations) &&
					rep1.Stats == repN.Stats,
				BelowNoiseFloor: belowNoiseFloor(wall1, wallN),
			}
			if wallN > 0 {
				row.Speedup = float64(wall1) / float64(wallN)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// WriteJSON serializes the report.
func (r *SpeedupReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTo renders an aligned text table.
func (r *SpeedupReport) WriteTo(w io.Writer) (int64, error) {
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := p("Engine wall time, Workers=1 vs Workers=%d (GOMAXPROCS %d, scale %g, best of %d interleaved runs)\n",
		r.Workers, r.GOMAXPROCS, r.Scale, r.Runs); err != nil {
		return total, err
	}
	if r.Degenerate != "" {
		return total, p("degenerate_config: %s\n", r.Degenerate)
	}
	if err := p("%-8s %-10s %12s %12s %8s %8s %10s\n",
		"design", "mode", "workers=1", fmt.Sprintf("workers=%d", r.Workers), "speedup", "viols", "identical"); err != nil {
		return total, err
	}
	for _, row := range r.Rows {
		if err := p("%-8s %-10s %12s %12s %7.2fx %8d %10v\n",
			row.Design, row.Mode,
			fmtDur(time.Duration(row.Wall1US)*time.Microsecond),
			fmtDur(time.Duration(row.WallNUS)*time.Microsecond),
			row.Speedup, row.Violations, row.Identical); err != nil {
			return total, err
		}
	}
	return total, nil
}
