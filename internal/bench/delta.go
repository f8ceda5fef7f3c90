package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// Delta-check experiment: a resident session takes an in-place edit batch
// confined to a y-strip covering a chosen fraction of the M1 layer, then
// re-checks incrementally. The comparator is what a client without delta
// checks would pay for the same result: a cold full check of the edited
// design. Every row cross-checks the two reports byte-for-byte in canonical
// form — the delta machinery changes cost, never results — and the edit
// fraction sweep shows the delta wall tracking the dirty area, with small
// edits far cheaper than the full re-check.

// DeltaFractions is the edit-fraction sweep: a tiny ECO-style fix, a local
// region, and a large swath.
func DeltaFractions() []float64 { return []float64{0.02, 0.10, 0.30} }

// DeltaDesigns are the sweep designs — small, medium, and large, so the
// fraction scaling shows at several absolute sizes without the full
// six-design cost.
func DeltaDesigns() []string { return []string{"uart", "sha3", "aes"} }

// deltaEdits builds the deterministic edit batch for one fraction: three
// sub-min-width slivers (fresh width violations) and one delete window, all
// inside a y-strip of fraction × the M1 extent, centered vertically.
func deltaEdits(lo *layout.Layout, fraction float64) []layout.Edit {
	m := lo.Top.LayerMBR(layout.LayerM1)
	w, h := m.XHi-m.XLo, m.YHi-m.YLo
	stripH := int64(float64(h) * fraction)
	if stripH < 120 {
		stripH = 120
	}
	y0 := m.YLo + (h-stripH)/2
	sliverH := stripH / 4
	if sliverH < 30 {
		sliverH = 30
	}
	var edits []layout.Edit
	for i := int64(0); i < 3; i++ {
		x := m.XLo + (i+1)*w/4
		y := y0 + i*(stripH-sliverH)/3
		edits = append(edits, layout.Edit{
			Op: layout.OpInsertRect, Layer: layout.LayerM1,
			Rect: geom.Rect{XLo: x, YLo: y, XHi: x + synth.MinWidthM1/2, YHi: y + sliverH},
		})
	}
	edits = append(edits, layout.Edit{
		Op: layout.OpDeleteRegion, Layer: layout.LayerM1,
		Rect: geom.Rect{XLo: m.XLo, YLo: y0, XHi: m.XLo + w/20, YHi: y0 + stripH},
	})
	return edits
}

// DeltaRow is one (design, mode, fraction) cell.
type DeltaRow struct {
	Design       string  `json:"design"`
	Mode         string  `json:"mode"`
	EditFraction float64 `json:"edit_fraction"`
	Rules        int     `json:"rules"`

	// Planned is false when the session fell back to a full check; the sweep
	// requires the incremental path, so the gate fails unplanned rows.
	Planned         bool `json:"planned"`
	RulesSkipped    int  `json:"rules_skipped"`
	RulesRestricted int  `json:"rules_restricted"`
	RulesFull       int  `json:"rules_full"`

	// WallFullUS is the comparator: a cold full check of the edited design
	// (load amortized away — the session client already holds the layout).
	WallFullUS     int64 `json:"wall_full_us"`
	WallDeltaUS    int64 `json:"wall_delta_us"`
	ModeledFullUS  int64 `json:"modeled_full_us"`
	ModeledDeltaUS int64 `json:"modeled_delta_us"`

	WallSpeedup    float64 `json:"wall_speedup"`
	ModeledSpeedup float64 `json:"modeled_speedup"`
	Speedup        float64 `json:"speedup"`

	FlattenMisses      int64 `json:"flatten_cache_misses"`
	DeviceDeltaUploads int64 `json:"device_delta_uploads"`

	Violations int `json:"violations"`
	// Identical is true when the delta report's canonical bytes equal the
	// cold full check's — the experiment's correctness contract.
	Identical       bool `json:"reports_identical"`
	BelowNoiseFloor bool `json:"below_noise_floor,omitempty"`
}

// DeltaReport is the whole experiment, serialized to BENCH_delta.json.
type DeltaReport struct {
	Scale float64    `json:"scale"`
	Runs  int        `json:"runs_per_cell"`
	Rows  []DeltaRow `json:"rows"`
}

// canonBytes renders a report's canonical form.
func canonBytes(rep *core.Report) (string, error) {
	var buf bytes.Buffer
	if err := rep.WriteCanonicalJSON(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// deltaSampleWarm runs the session side once: load, full baseline check
// (untimed), edit, delta check (the measured quantity).
func deltaSampleWarm(ctx context.Context, design string, scale float64, mode core.Mode, fraction float64) (*core.Report, core.DeltaInfo, error) {
	lo, _, err := synth.Load(design, scale)
	if err != nil {
		return nil, core.DeltaInfo{}, err
	}
	ses := core.NewSession(lo, core.Options{Mode: mode})
	defer ses.Close(ctx)
	deck := synth.Deck()
	if _, err := ses.Check(ctx, deck); err != nil {
		return nil, core.DeltaInfo{}, fmt.Errorf("baseline: %w", err)
	}
	if _, err := ses.Edit(ctx, deltaEdits(lo, fraction)); err != nil {
		return nil, core.DeltaInfo{}, fmt.Errorf("edit: %w", err)
	}
	rep, info, err := ses.DeltaCheck(ctx, deck)
	if err != nil {
		return nil, core.DeltaInfo{}, fmt.Errorf("delta check: %w", err)
	}
	return rep, info, nil
}

// deltaSampleCold runs the comparator once: a fresh layout with the same
// edits applied, checked by a batch engine.
func deltaSampleCold(ctx context.Context, design string, scale float64, mode core.Mode, fraction float64) (*core.Report, error) {
	lo, _, err := synth.Load(design, scale)
	if err != nil {
		return nil, err
	}
	if _, err := lo.ApplyEdits(deltaEdits(lo, fraction)); err != nil {
		return nil, err
	}
	eng := core.New(core.Options{Mode: mode})
	if err := eng.AddRules(synth.Deck()...); err != nil {
		return nil, err
	}
	return eng.CheckContext(ctx, lo)
}

// DeltaContext runs the sweep: for each design, mode, and edit fraction,
// interleaved cold-vs-delta samples with per-side best-of-runs (drift lands
// on both sides, the minimum discards contamination — see bestDuration).
func DeltaContext(ctx context.Context, runs int, scale float64) (*DeltaReport, error) {
	if runs < 1 {
		runs = 1
	}
	out := &DeltaReport{Scale: scale, Runs: runs}
	deckLen := len(synth.Deck())
	for _, mode := range []core.Mode{core.Parallel, core.Sequential} {
		for _, design := range DeltaDesigns() {
			for _, fraction := range DeltaFractions() {
				var repCold, repDelta *core.Report
				var info core.DeltaInfo
				wCold := make([]time.Duration, 0, runs)
				wDelta := make([]time.Duration, 0, runs)
				for i := 0; i < runs; i++ {
					runtime.GC()
					rc, err := deltaSampleCold(ctx, design, scale, mode, fraction)
					if err != nil {
						return nil, fmt.Errorf("%s %s f=%g cold: %w", design, mode, fraction, err)
					}
					wCold = append(wCold, rc.HostWall)
					if repCold == nil {
						repCold = rc
					}
					runtime.GC()
					rd, di, err := deltaSampleWarm(ctx, design, scale, mode, fraction)
					if err != nil {
						return nil, fmt.Errorf("%s %s f=%g warm: %w", design, mode, fraction, err)
					}
					wDelta = append(wDelta, rd.HostWall)
					if repDelta == nil {
						repDelta, info = rd, di
					}
				}
				wallCold, wallDelta := bestDuration(wCold), bestDuration(wDelta)
				canonCold, err := canonBytes(repCold)
				if err != nil {
					return nil, err
				}
				canonDelta, err := canonBytes(repDelta)
				if err != nil {
					return nil, err
				}
				row := DeltaRow{
					Design:       design,
					Mode:         mode.String(),
					EditFraction: fraction,
					Rules:        deckLen,

					Planned:         info.Planned,
					RulesSkipped:    info.RulesSkipped,
					RulesRestricted: info.RulesRestricted,
					RulesFull:       info.RulesFull,

					WallFullUS:     wallCold.Microseconds(),
					WallDeltaUS:    wallDelta.Microseconds(),
					ModeledFullUS:  repCold.Modeled.Microseconds(),
					ModeledDeltaUS: repDelta.Modeled.Microseconds(),

					FlattenMisses:      repDelta.Stats.FlattenCacheMisses,
					DeviceDeltaUploads: repDelta.Stats.DeviceDeltaUploads,

					Violations:      len(repDelta.Violations),
					Identical:       canonCold == canonDelta,
					BelowNoiseFloor: belowNoiseFloor(wallCold, wallDelta),
				}
				if wallDelta > 0 {
					row.WallSpeedup = float64(wallCold) / float64(wallDelta)
				}
				if repDelta.Modeled > 0 {
					row.ModeledSpeedup = float64(repCold.Modeled) / float64(repDelta.Modeled)
				}
				row.Speedup = row.WallSpeedup
				if row.ModeledSpeedup > row.Speedup {
					row.Speedup = row.ModeledSpeedup
				}
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// WriteJSON serializes the report.
func (r *DeltaReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTo renders an aligned text table.
func (r *DeltaReport) WriteTo(w io.Writer) (int64, error) {
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := p("Delta checks: incremental re-check vs cold full check after edits (scale %g, best of %d interleaved runs)\n",
		r.Scale, r.Runs); err != nil {
		return total, err
	}
	if err := p("%-8s %-10s %8s %12s %12s %8s %8s %22s %6s %10s\n",
		"design", "mode", "edit", "wall full", "wall delta", "wall x",
		"planned", "skip/restrict/full", "viols", "identical"); err != nil {
		return total, err
	}
	for _, row := range r.Rows {
		if err := p("%-8s %-10s %7.0f%% %12s %12s %7.2fx %8v %20d/%d/%d %6d %10v\n",
			row.Design, row.Mode, row.EditFraction*100,
			fmtDur(time.Duration(row.WallFullUS)*time.Microsecond),
			fmtDur(time.Duration(row.WallDeltaUS)*time.Microsecond),
			row.WallSpeedup, row.Planned,
			row.RulesSkipped, row.RulesRestricted, row.RulesFull,
			row.Violations, row.Identical); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Gate returns an error listing every regressed row: a report differing from
// the cold check (the correctness contract), a fallback where the sweep
// expected an incremental run, or a smallest-fraction row where the delta
// check was slower than the full check it replaces. Larger fractions are
// reported but not speed-gated — a 30% edit legitimately approaches full-
// check cost.
func (r *DeltaReport) Gate() error {
	smallest := DeltaFractions()[0]
	var bad []string
	for _, row := range r.Rows {
		if !row.Identical {
			bad = append(bad, fmt.Sprintf("%s/%s f=%g: delta report differs from cold full check",
				row.Design, row.Mode, row.EditFraction))
		}
		if !row.Planned {
			bad = append(bad, fmt.Sprintf("%s/%s f=%g: delta check fell back to a full check",
				row.Design, row.Mode, row.EditFraction))
		}
		if row.EditFraction == smallest && row.Speedup < 1.0 && !row.BelowNoiseFloor {
			bad = append(bad, fmt.Sprintf("%s/%s f=%g: speedup %.3f < 1.0 (delta slower than full re-check)",
				row.Design, row.Mode, row.EditFraction, row.Speedup))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("delta gate: %d regressed row(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
