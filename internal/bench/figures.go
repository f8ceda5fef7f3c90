package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/infra"
	"opendrc/internal/interval"
	"opendrc/internal/layout"
	"opendrc/internal/partition"
	"opendrc/internal/synth"
)

// Fig3 prints the sweepline + interval tree trace for a small scene in the
// spirit of the paper's Fig. 3: the sweepline moves top to bottom, inserting
// each MBR's x-interval at its top side, querying the tree for overlaps, and
// removing it at its bottom side.
func Fig3(w io.Writer) error {
	boxes := []geom.Rect{
		geom.R(2, 10, 8, 16),  // A
		geom.R(6, 12, 14, 20), // B (overlaps A)
		geom.R(16, 4, 24, 12), // C
		geom.R(20, 8, 30, 14), // D (overlaps C)
		geom.R(10, 0, 14, 6),  // E (isolated)
	}
	names := []string{"A", "B", "C", "D", "E"}
	type ev struct {
		y   int64
		id  int
		top bool
	}
	var events []ev
	var coords []int64
	var ivs []interval.Entry
	for i, b := range boxes {
		events = append(events, ev{b.YHi, i, true}, ev{b.YLo, i, false})
		coords = append(coords, b.XLo, b.XHi)
		ivs = append(ivs, interval.Entry{Lo: b.XLo, Hi: b.XHi, ID: i})
	}
	for i := range events {
		for j := i + 1; j < len(events); j++ {
			ei, ej := events[i], events[j]
			if ej.y > ei.y || (ej.y == ei.y && ej.top && !ei.top) {
				events[i], events[j] = events[j], events[i]
			}
		}
	}
	tree := interval.NewTree(coords, ivs)
	fmt.Fprintln(w, "Fig. 3 — sweepline over MBRs with interval tree status")
	for _, e := range events {
		b := boxes[e.id]
		if e.top {
			var hits []string
			tree.Query(b.XLo, b.XHi, func(en interval.Entry) {
				hits = append(hits, names[en.ID])
			})
			if err := tree.Insert(e.id); err != nil {
				return err
			}
			fmt.Fprintf(w, "y=%2d  TOP %s    insert [%d,%d]  overlaps=%v  live=%d\n",
				e.y, names[e.id], b.XLo, b.XHi, hits, tree.Len())
		} else {
			tree.Delete(e.id)
			fmt.Fprintf(w, "y=%2d  BOT %s    remove [%d,%d]              live=%d\n",
				e.y, names[e.id], b.XLo, b.XHi, tree.Len())
		}
	}
	return nil
}

// Fig4Row is one design's sequential space-check runtime breakdown.
type Fig4Row struct {
	Design    string
	Total     time.Duration
	Partition float64 // fractions of total
	Sweepline float64
	EdgeCheck float64
	Other     float64
}

// fig4Runs is how many profiled runs Fig4Context takes per design, keeping the fastest.
const fig4Runs = 3

// Fig4Context profiles the sequential M1.S.1 check per design, reproducing
// the paper's runtime breakdown (partition ≈ 15%, sweepline + interval tree
// ≈ 35%, edge-to-edge checks 40–50%); cancellation aborts between designs.
func Fig4Context(ctx context.Context, layouts map[string]*layout.Layout) ([]Fig4Row, error) {
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		return nil, err
	}
	var out []Fig4Row
	for _, design := range DesignNames() {
		lo := layouts[design]
		if lo == nil {
			continue
		}
		eng := core.New(core.Options{Mode: core.Sequential})
		if err := eng.AddRules(r); err != nil {
			return nil, err
		}
		// The phases are sub-millisecond at small scales, so one GC cycle or
		// preemption inside a phase reshapes a single run's breakdown: keep
		// the fastest of a few runs (contamination only ever adds time).
		var rep *core.Report
		for k := 0; k < fig4Runs; k++ {
			got, err := eng.CheckContext(ctx, lo)
			if err != nil {
				return nil, err
			}
			if rep == nil || got.Profile.Total() < rep.Profile.Total() {
				rep = got
			}
		}
		row := Fig4Row{Design: design, Total: rep.Profile.Total()}
		total := float64(row.Total)
		if total > 0 {
			row.Partition = float64(rep.Profile.Get("spacing:partition")) / total
			row.Sweepline = float64(rep.Profile.Get("spacing:sweepline")) / total
			row.EdgeCheck = float64(rep.Profile.Get("spacing:edge-checks")) / total
			row.Other = 1 - row.Partition - row.Sweepline - row.EdgeCheck
		}
		out = append(out, row)
	}
	return out, nil
}

// WriteFig4 renders the breakdown rows with bar charts.
func WriteFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Fig. 4 — sequential space-check (M1.S.1) runtime breakdown")
	fmt.Fprintf(w, "%-8s %10s %11s %11s %11s %8s\n",
		"design", "total", "partition", "sweepline", "edge-check", "other")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10v %10.1f%% %10.1f%% %10.1f%% %7.1f%%\n",
			r.Design, r.Total.Round(time.Microsecond),
			r.Partition*100, r.Sweepline*100, r.EdgeCheck*100, r.Other*100)
	}
}

// Ablation is one A/B pair of AblationsContext: what each side took and what
// it found — deduplicated violations, or, for the interval-merging pair,
// which times the partition alone, partition rows. The two counts must agree.
type Ablation struct {
	Choice, A, B   string
	TimeA, TimeB   time.Duration
	CountA, CountB int
	Ratio          bool // print B/A
}

// AblationsContext times the design choices DESIGN.md calls out on aes /
// M1.S.1 as A/B pairs, prints each pair's times and returns the pairs:
//   - hierarchy pruning: the sequential engine against KLayout flat, the
//     unpruned baseline (calibrated host wall, as in the tables);
//   - interval merging: partition.Rows over the flattened layer's boxes at
//     the rule's reach, pigeonhole against sort-based (host wall, best of 5);
//   - executor selection: the parallel engine with every row forced onto the
//     brute-force executor, then onto the sweepline (modeled).
//
// Cancellation aborts between checks.
func AblationsContext(ctx context.Context, w io.Writer, scale float64) ([]Ablation, error) {
	lo, _, err := synth.Load("aes", scale)
	if err != nil {
		return nil, err
	}
	r, err := synth.RuleByID("M1.S.1")
	if err != nil {
		return nil, err
	}
	type side func() (time.Duration, int, error)
	checker := func(c Checker) side {
		return func() (time.Duration, int, error) {
			cell, err := RunCellContext(ctx, lo, r, c)
			return cell.Time, cell.Violations, err
		}
	}
	flat := lo.FlattenLayer(r.Layer)
	boxes := make([]geom.Rect, len(flat))
	for i := range flat {
		boxes[i] = flat[i].Shape.MBR()
	}
	merge := func(alg partition.Algorithm) side {
		return func() (time.Duration, int, error) {
			best, n := time.Duration(math.MaxInt64), 0
			for range 5 {
				t0 := time.Now()
				n = len(partition.Rows(boxes, r.SpacingLimit().Reach(), alg))
				best = min(best, time.Since(t0))
			}
			return best, n, nil
		}
	}
	executor := func(threshold int) side {
		return func() (time.Duration, int, error) {
			eng := core.New(core.Options{Mode: core.Parallel, BruteEdgeThreshold: threshold})
			if err := eng.AddRules(r); err != nil {
				return 0, 0, err
			}
			rep, err := eng.CheckContext(ctx, lo)
			if err != nil {
				return 0, 0, err
			}
			return rep.Modeled, dedupCount(rep.Violations), nil
		}
	}
	abs := []Ablation{
		{Choice: "hierarchy pruning", A: "on", B: "off (KL-flat)", Ratio: true},
		{Choice: "interval merging", A: "pigeonhole", B: "sort-based"},
		{Choice: "executor selection", A: "all-brute", B: "all-sweep"},
	}
	sides := [][2]side{
		{checker(OpenDRCSeq), checker(KLayoutFlat)},
		{merge(partition.Pigeonhole), merge(partition.SortBased)},
		{executor(1 << 30), executor(1)},
	}
	fmt.Fprintln(w, "Ablations on aes / M1.S.1 (calibrated host wall, host wall or modeled time):")
	for i := range abs {
		ab := &abs[i]
		if ab.TimeA, ab.CountA, err = sides[i][0](); err != nil {
			return nil, err
		}
		if ab.TimeB, ab.CountB, err = sides[i][1](); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  %-20s: %s %v   %s %v", ab.Choice,
			ab.A, ab.TimeA.Round(time.Microsecond), ab.B, ab.TimeB.Round(time.Microsecond))
		if ab.Ratio {
			fmt.Fprintf(w, "   (%.1fx)", float64(ab.TimeB)/float64(ab.TimeA))
		}
		fmt.Fprintln(w)
	}
	return abs, nil
}

// BreakdownProfileContext returns the raw profiler of a sequential run of
// one rule on one design under ctx: the phase totals Fig4Context reduces to
// a breakdown row.
func BreakdownProfileContext(ctx context.Context, lo *layout.Layout, ruleID string) (*infra.Profiler, error) {
	r, err := synth.RuleByID(ruleID)
	if err != nil {
		return nil, err
	}
	eng := core.New(core.Options{Mode: core.Sequential})
	if err := eng.AddRules(r); err != nil {
		return nil, err
	}
	rep, err := eng.CheckContext(ctx, lo)
	if err != nil {
		return nil, err
	}
	return rep.Profile, nil
}
