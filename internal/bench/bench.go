// Package bench is the evaluation harness that regenerates the paper's
// tables and figures: it runs every (design, rule, checker) cell, renders
// Table I (intra-polygon checks) and Table II (inter-polygon checks) with
// the paper's column layout and normalized geometric-mean rows, prints the
// Fig. 3 sweepline trace, and profiles the Fig. 4 runtime breakdown.
//
// Time semantics per checker, stated in every table header:
//   - KLayout flat/deep and OpenDRC sequential report measured single-core
//     host wall time;
//   - KLayout tiling reports the modeled 8-thread makespan over measured
//     per-tile times;
//   - X-Check and OpenDRC parallel report the modeled CPU+GPU time from
//     the simulated device timeline (host phases measured, kernels costed).
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/gpu"
	"opendrc/internal/klayout"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
	"opendrc/internal/xcheck"
)

// calibrate converts a duration measured on this host into modeled-platform
// host time, using the same divisor the simulated device applies to host
// phases (gpu.DefaultHostCalibration), so CPU-only checkers and hybrid
// modeled times stay comparable.
func calibrate(d time.Duration) time.Duration {
	return time.Duration(float64(d) / gpu.DefaultHostCalibration)
}

// Checker identifies one evaluated tool configuration.
type Checker int

// The six table columns.
const (
	KLayoutFlat Checker = iota
	KLayoutDeep
	KLayoutTile
	XCheck
	OpenDRCSeq
	OpenDRCPar
	numCheckers
)

var checkerNames = [...]string{"KL-flat", "KL-deep", "KL-tile", "X-Check", "ODRC-seq", "ODRC-par"}

// String implements fmt.Stringer.
func (c Checker) String() string {
	if int(c) < len(checkerNames) {
		return checkerNames[c]
	}
	return fmt.Sprintf("checker(%d)", int(c))
}

// Cell is one table entry.
type Cell struct {
	Time       time.Duration
	Violations int
	Supported  bool
}

// RunCellContext executes one rule with one checker under ctx. A degraded
// engine report (a rule failure swallowed by fault isolation) is an error
// here: benchmark numbers must come from complete runs.
func RunCellContext(ctx context.Context, lo *layout.Layout, r rules.Rule, c Checker) (Cell, error) {
	switch c {
	case KLayoutFlat, KLayoutDeep, KLayoutTile:
		mode := klayout.Flat
		switch c {
		case KLayoutDeep:
			mode = klayout.Deep
		case KLayoutTile:
			mode = klayout.Tiling
		}
		res, err := klayout.CheckContext(ctx, lo, r, klayout.Options{Mode: mode})
		if err != nil {
			return Cell{}, err
		}
		t := res.Wall
		if c == KLayoutTile {
			t = res.Modeled
		}
		return Cell{Time: calibrate(t), Violations: dedupCount(res.Violations), Supported: true}, nil
	case XCheck:
		res, err := xcheck.CheckContext(ctx, lo, r, xcheck.Options{})
		if errors.Is(err, xcheck.ErrUnsupported) {
			return Cell{Supported: false}, nil
		}
		if err != nil {
			return Cell{}, err
		}
		return Cell{Time: res.Modeled, Violations: dedupCount(res.Violations), Supported: true}, nil
	case OpenDRCSeq, OpenDRCPar:
		mode := core.Sequential
		if c == OpenDRCPar {
			mode = core.Parallel
		}
		eng := core.New(core.Options{Mode: mode})
		if err := eng.AddRules(r); err != nil {
			return Cell{}, err
		}
		rep, err := eng.CheckContext(ctx, lo)
		if err != nil {
			return Cell{}, err
		}
		if rep.Degraded {
			return Cell{}, fmt.Errorf("bench: degraded report for %s (%d rule failures)", r.ID, len(rep.Failures))
		}
		t := rep.Modeled
		if mode == core.Sequential {
			t = calibrate(t)
		}
		return Cell{Time: t, Violations: dedupCount(rep.Violations), Supported: true}, nil
	}
	return Cell{}, fmt.Errorf("bench: unknown checker %d", int(c))
}

func dedupCount(vs []rules.Violation) int {
	return len(core.DedupViolations(vs))
}

// Row is one table line: a design/rule pair with all checker cells.
type Row struct {
	Design string
	RuleID string
	Cells  [numCheckers]Cell
}

// Table is a rendered experiment.
type Table struct {
	Title string
	Rows  []Row
	// GeoMeanRel[c] is the geometric mean of per-row times normalized to
	// OpenDRC-parallel — the paper's "average" row ("the runtime is the
	// geometric mean of the column, as we value all checks equally
	// regardless of their sizes"). Unsupported cells are excluded.
	GeoMeanRel [numCheckers]float64
	// Mismatches counts rows where the checkers disagreed on the deduped
	// violation count — a correctness cross-check the paper's tools cannot
	// offer; it must be zero.
	Mismatches int
}

// TableIRules are the intra-polygon rules (width and area, per metal layer).
func TableIRules() []string {
	return []string{"M1.W.1", "M2.W.1", "M3.W.1", "M1.A.1", "M2.A.1", "M3.A.1"}
}

// TableIIRules are the inter-polygon rules (spacing and enclosure).
func TableIIRules() []string {
	return []string{"M1.S.1", "M2.S.1", "M3.S.1", "V1.M1.EN.1", "V2.M2.EN.1", "V2.M3.EN.1"}
}

// DesignNames lists the evaluation designs in the paper's order.
func DesignNames() []string {
	return []string{"aes", "ethmac", "ibex", "jpeg", "sha3", "uart"}
}

// Layouts loads every design at the given scale (1 = full size).
func Layouts(scale float64) (map[string]*layout.Layout, error) {
	out := make(map[string]*layout.Layout)
	for _, name := range DesignNames() {
		lo, _, err := synth.Load(name, scale)
		if err != nil {
			return nil, err
		}
		out[name] = lo
	}
	return out, nil
}

// RunContext executes one table over the designs under ctx; a timeout or
// cancellation aborts between cells with an error wrapping ctx.Err().
func RunContext(ctx context.Context, title string, layouts map[string]*layout.Layout, ruleIDs []string) (*Table, error) {
	tbl := &Table{Title: title}
	for _, design := range DesignNames() {
		lo := layouts[design]
		if lo == nil {
			continue
		}
		for _, id := range ruleIDs {
			r, err := synth.RuleByID(id)
			if err != nil {
				return nil, err
			}
			row := Row{Design: design, RuleID: id}
			for c := Checker(0); c < numCheckers; c++ {
				cell, err := RunCellContext(ctx, lo, r, c)
				if err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", design, id, c, err)
				}
				row.Cells[c] = cell
			}
			if !consistent(&row) {
				tbl.Mismatches++
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	tbl.computeGeoMeans()
	return tbl, nil
}

// consistent reports whether all supported checkers found the same deduped
// violation count.
func consistent(row *Row) bool {
	ref := -1
	for c := Checker(0); c < numCheckers; c++ {
		cell := row.Cells[c]
		if !cell.Supported {
			continue
		}
		if ref < 0 {
			ref = cell.Violations
			continue
		}
		if cell.Violations != ref {
			return false
		}
	}
	return true
}

func (t *Table) computeGeoMeans() {
	var logSum [numCheckers]float64
	var n [numCheckers]int
	for _, row := range t.Rows {
		base := row.Cells[OpenDRCPar].Time
		if base <= 0 {
			base = time.Nanosecond
		}
		for c := Checker(0); c < numCheckers; c++ {
			cell := row.Cells[c]
			if !cell.Supported {
				continue
			}
			tm := cell.Time
			if tm <= 0 {
				tm = time.Nanosecond
			}
			logSum[c] += math.Log(float64(tm) / float64(base))
			n[c]++
		}
	}
	for c := Checker(0); c < numCheckers; c++ {
		if n[c] > 0 {
			t.GeoMeanRel[c] = math.Exp(logSum[c] / float64(n[c]))
		}
	}
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := p("%s\n", t.Title); err != nil {
		return total, err
	}
	if err := p("%-8s %-11s", "design", "rule"); err != nil {
		return total, err
	}
	for c := Checker(0); c < numCheckers; c++ {
		if err := p(" %12s", c); err != nil {
			return total, err
		}
	}
	if err := p(" %6s\n", "viols"); err != nil {
		return total, err
	}
	for _, row := range t.Rows {
		if err := p("%-8s %-11s", row.Design, row.RuleID); err != nil {
			return total, err
		}
		for c := Checker(0); c < numCheckers; c++ {
			cell := row.Cells[c]
			if !cell.Supported {
				if err := p(" %12s", "-"); err != nil {
					return total, err
				}
				continue
			}
			if err := p(" %12s", fmtDur(cell.Time)); err != nil {
				return total, err
			}
		}
		if err := p(" %6d\n", row.Cells[OpenDRCSeq].Violations); err != nil {
			return total, err
		}
	}
	if err := p("%-20s", "geo-mean (vs par)"); err != nil {
		return total, err
	}
	for c := Checker(0); c < numCheckers; c++ {
		if err := p(" %11.1fx", t.GeoMeanRel[c]); err != nil {
			return total, err
		}
	}
	if err := p("\nresult mismatches: %d\n", t.Mismatches); err != nil {
		return total, err
	}
	return total, nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}
