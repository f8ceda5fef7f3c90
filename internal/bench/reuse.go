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
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// Cross-rule geometry reuse experiment: a deck of many spacing rules over a
// few layers (the shape of real sign-off decks, where one metal layer
// carries a base spacing rule plus several projection-conditioned
// variants), checked with the geometry cache on versus off. The cached run
// flattens and packs each layer once, keeps the packed buffer
// device-resident, and pipelines the next rule's host prep behind the
// current rule's kernels; the uncached run re-derives everything per rule.
// Every row cross-checks that both configurations produced identical sorted
// violations — the cache changes cost, never results.

// ReuseDeck is the multi-rule spacing deck: for each routing layer, the
// standard minimum spacing plus two parallel-run-length variants (distinct
// PRL lengths, so the deck validates). Nine rules over three layers — a 3×
// reuse opportunity per layer.
func ReuseDeck() rules.Deck {
	var d rules.Deck
	for _, t := range []struct {
		layer layout.Layer
		base  int64
		name  string
	}{
		{layout.LayerM1, synth.MinSpaceM1, "M1.S"},
		{layout.LayerM2, synth.MinSpaceM2, "M2.S"},
		{layout.LayerM3, synth.MinSpaceM3, "M3.S"},
	} {
		d = append(d,
			rules.Layer(t.layer).Spacing().AtLeast(t.base).Named(t.name+".1"),
			rules.Layer(t.layer).Spacing().AtLeast(t.base).
				WhenProjectionAtLeast(2*t.base, t.base+t.base/2).Named(t.name+".PRL.1"),
			rules.Layer(t.layer).Spacing().AtLeast(t.base).
				WhenProjectionAtLeast(4*t.base, 2*t.base).Named(t.name+".PRL.2"),
		)
	}
	return d
}

// ReuseRow compares cache-on and cache-off on one design in one mode.
type ReuseRow struct {
	Design string `json:"design"`
	Mode   string `json:"mode"`
	Rules  int    `json:"rules"`

	WallOffUS    int64 `json:"wall_nocache_us"`
	WallOnUS     int64 `json:"wall_cache_us"`
	ModeledOffUS int64 `json:"modeled_nocache_us"`
	ModeledOnUS  int64 `json:"modeled_cache_us"`

	// WallImprovement and ModeledImprovement are off/on ratios (>1 means the
	// cache helped); Improvement is the better of the two, the experiment's
	// headline number.
	WallImprovement    float64 `json:"wall_improvement"`
	ModeledImprovement float64 `json:"modeled_improvement"`
	Improvement        float64 `json:"improvement"`

	FlattenHits   int64 `json:"flatten_cache_hits"`
	FlattenMisses int64 `json:"flatten_cache_misses"`
	PackHits      int64 `json:"pack_cache_hits"`
	PackMisses    int64 `json:"pack_cache_misses"`
	DeviceUploads int64 `json:"device_uploads"`
	DeviceReuses  int64 `json:"device_reuses"`

	Violations int `json:"violations"`
	// Identical is true when cache-on and cache-off produced byte-identical
	// sorted violation lists.
	Identical bool `json:"reports_identical"`
	// BelowNoiseFloor is true when both sides ran for less than noiseFloor:
	// the ratio is then scheduler jitter, not the cache, so the gate checks
	// only report identity on such rows.
	BelowNoiseFloor bool `json:"below_noise_floor,omitempty"`
}

// ReuseReport is the whole experiment, serialized to BENCH_reuse.json.
type ReuseReport struct {
	Scale float64    `json:"scale"`
	Runs  int        `json:"runs_per_cell"`
	Rows  []ReuseRow `json:"rows"`
}

// reuseSample checks the reuse deck on lo once. The sequential rows run
// with pruning disabled: the pruned hierarchical path never flattens (that
// is its whole point), so the flat ablation is where sequential reuse shows.
func reuseSample(ctx context.Context, lo *layout.Layout, mode core.Mode, noCache bool) (*core.Report, error) {
	eng := core.New(core.Options{
		Mode:            mode,
		DisableGeoCache: noCache,
		DisablePruning:  mode == core.Sequential,
	})
	if err := eng.AddRules(ReuseDeck()...); err != nil {
		return nil, err
	}
	return eng.CheckContext(ctx, lo)
}

// reusePair measures cache-off against cache-on with interleaved samples
// (off, on, off, on, …) and per-side best-of-runs, for the same reasons the
// speedup experiment does: drift lands on both sides and the minimum
// discards external contamination (see bestDuration). Reports are
// deterministic per configuration, so the first sample of each side serves
// for the identity cross-check.
func reusePair(ctx context.Context, lo *layout.Layout, mode core.Mode, runs int) (repOff, repOn *core.Report, wallOff, wallOn time.Duration, err error) {
	wOff := make([]time.Duration, 0, runs)
	wOn := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		// Collect before each sample: otherwise the garbage of the previous
		// sample — the *other* configuration — is collected inside this
		// sample's measured window, a systematic bias interleaving alone
		// cannot remove (the cache-off side allocates far more, and its GC
		// debt would land on the cache-on side's wall clock).
		runtime.GC()
		rOff, err := reuseSample(ctx, lo, mode, true)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("nocache: %w", err)
		}
		wOff = append(wOff, rOff.HostWall)
		if repOff == nil {
			repOff = rOff
		}
		runtime.GC()
		rOn, err := reuseSample(ctx, lo, mode, false)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("cache: %w", err)
		}
		wOn = append(wOn, rOn.HostWall)
		if repOn == nil {
			repOn = rOn
		}
	}
	return repOff, repOn, bestDuration(wOff), bestDuration(wOn), nil
}

// Reuse runs the experiment over the given layouts (use Layouts(scale)) in
// both engine modes; runs is the repetitions per cell (the best of the
// interleaved runs is reported).
func Reuse(layouts map[string]*layout.Layout, runs int, scale float64) (*ReuseReport, error) {
	return ReuseContext(context.Background(), layouts, runs, scale) //odrc:allow ctxflow — context-free convenience wrapper, delegates to the Context variant
}

// ReuseContext is Reuse under a context; cancellation aborts between runs.
func ReuseContext(ctx context.Context, layouts map[string]*layout.Layout, runs int, scale float64) (*ReuseReport, error) {
	if runs < 1 {
		runs = 1
	}
	out := &ReuseReport{Scale: scale, Runs: runs}
	deckLen := len(ReuseDeck())
	for _, mode := range []core.Mode{core.Parallel, core.Sequential} {
		for _, design := range DesignNames() {
			lo := layouts[design]
			if lo == nil {
				continue
			}
			repOff, repOn, wallOff, wallOn, err := reusePair(ctx, lo, mode, runs)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", design, mode, err)
			}
			row := ReuseRow{
				Design:       design,
				Mode:         mode.String(),
				Rules:        deckLen,
				WallOffUS:    wallOff.Microseconds(),
				WallOnUS:     wallOn.Microseconds(),
				ModeledOffUS: repOff.Modeled.Microseconds(),
				ModeledOnUS:  repOn.Modeled.Microseconds(),

				FlattenHits:   repOn.Stats.FlattenCacheHits,
				FlattenMisses: repOn.Stats.FlattenCacheMisses,
				PackHits:      repOn.Stats.PackCacheHits,
				PackMisses:    repOn.Stats.PackCacheMisses,
				DeviceUploads: repOn.Stats.DeviceUploads,
				DeviceReuses:  repOn.Stats.DeviceReuses,

				Violations:      len(repOn.Violations),
				Identical:       reflect.DeepEqual(repOn.Violations, repOff.Violations),
				BelowNoiseFloor: belowNoiseFloor(wallOff, wallOn),
			}
			if wallOn > 0 {
				row.WallImprovement = float64(wallOff) / float64(wallOn)
			}
			if repOn.Modeled > 0 {
				row.ModeledImprovement = float64(repOff.Modeled) / float64(repOn.Modeled)
			}
			row.Improvement = row.WallImprovement
			if row.ModeledImprovement > row.Improvement {
				row.Improvement = row.ModeledImprovement
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// WriteJSON serializes the report.
func (r *ReuseReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTo renders an aligned text table.
func (r *ReuseReport) WriteTo(w io.Writer) (int64, error) {
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := p("Geometry reuse: cache off vs on, %d-rule spacing deck (scale %g, best of %d interleaved runs)\n",
		len(ReuseDeck()), r.Scale, r.Runs); err != nil {
		return total, err
	}
	if err := p("%-8s %-10s %12s %12s %8s %12s %12s %8s %6s %10s\n",
		"design", "mode", "wall off", "wall on", "wall x",
		"modeled off", "modeled on", "model x", "viols", "identical"); err != nil {
		return total, err
	}
	for _, row := range r.Rows {
		if err := p("%-8s %-10s %12s %12s %7.2fx %12s %12s %7.2fx %6d %10v\n",
			row.Design, row.Mode,
			fmtDur(time.Duration(row.WallOffUS)*time.Microsecond),
			fmtDur(time.Duration(row.WallOnUS)*time.Microsecond),
			row.WallImprovement,
			fmtDur(time.Duration(row.ModeledOffUS)*time.Microsecond),
			fmtDur(time.Duration(row.ModeledOnUS)*time.Microsecond),
			row.ModeledImprovement,
			row.Violations, row.Identical); err != nil {
			return total, err
		}
	}
	return total, nil
}
