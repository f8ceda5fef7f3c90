// Package klayout re-implements the three operating modes of the KLayout
// design rule checker that the paper benchmarks against — flat, deep
// (hierarchical), and tiling — with the documented algorithmic structure of
// each mode, so their relative costs emerge from the algorithms rather than
// from tuned constants:
//
//   - flat: the layout is fully instantiated and every check runs on the
//     expanded geometry with one global sweepline per rule. No hierarchy
//     reuse: work scales with instance counts.
//   - deep: hierarchical processing. Intra-polygon results are computed per
//     definition and materialized per instance through "variant" shape
//     transforms (each instance's geometry is touched, which is what makes
//     deep slower than an engine that replays markers only). Inter-polygon
//     checks discover neighbor candidates with per-shape region scans over
//     the instance list rather than a global sweepline — the behaviour that
//     makes deep mode *slower* than flat on dense flat routing layers, as
//     the paper's jpeg M3.S.1 row (3588 s deep vs 317 s flat) shows.
//   - tiling: the flat geometry is partitioned into fixed tiles extended by
//     the rule halo; tiles are processed independently (multi-CPU in real
//     KLayout) and duplicated findings in halos are merged. Per-tile wall
//     times are reported so a multi-thread makespan can be modeled on a
//     single-core host.
//
// All three modes produce the same violation set as OpenDRC's engines
// (verified in tests); only the work structure differs.
package klayout

import (
	"context"
	"fmt"
	"sort"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/checks"
	"opendrc/internal/faults"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/sweep"
)

// Mode selects the KLayout operating mode.
type Mode int

// Operating modes.
const (
	Flat Mode = iota
	Deep
	Tiling
)

var modeNames = [...]string{"flat", "deep", "tiling"}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configure a run.
type Options struct {
	Mode Mode
	// TileSize is the tiling-mode tile edge in DBU. Zero selects an
	// adaptive default of 1/8 of the layout's larger extent (at least
	// 1000 DBU), giving the worker pool a balanced tile grid on any
	// design size.
	TileSize int64
	// Threads models the tiling worker pool for the makespan estimate
	// (default 8, matching the paper's multi-core host).
	Threads int
	// Workers is the real worker-pool size executing tiles on this host
	// (<= 0 selects GOMAXPROCS). Result.Wall measures the pooled run;
	// Result.Modeled stays the Threads-worker LPT makespan, so measured
	// and modeled multi-core times are reported side by side.
	Workers int

	// Budgets are the run's resource limits. Flat mode estimates its
	// flatten size up front and, when the flatten-polys budget would trip,
	// falls back to tiling mode (Result.FellBack) instead of materializing
	// the blow-up. The zero value imposes no limits.
	Budgets budget.Limits

	// Faults is the deterministic fault injector driving the chaos suite;
	// nil (the production value) is inert.
	Faults *faults.Injector
}

// Result is the outcome of checking one rule.
type Result struct {
	Violations []rules.Violation
	// Wall is the measured host wall-clock time. Flat and deep modes run
	// on one core; tiling mode runs its tiles on the Options.Workers pool,
	// so Wall is the real multi-core time on this host.
	Wall time.Duration
	// Modeled is the estimated time with the mode's parallelism: equal to
	// Wall for flat/deep; for tiling, the LPT makespan of per-tile times
	// over Threads workers.
	Modeled time.Duration
	// Tiles is the number of non-empty tiles processed (tiling mode).
	Tiles int
	// FellBack is set when flat mode detected that fully instantiating the
	// layout would trip the flatten-polys budget and ran tiling instead.
	FellBack bool
}

// CheckContext runs one rule in the configured mode under ctx. Cancellation
// is cooperative (checked per instance cluster, tile, or flatten batch); a
// cancelled run returns a nil result and an error wrapping ctx.Err().
func CheckContext(ctx context.Context, lo *layout.Layout, r rules.Rule, opts Options) (*Result, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("klayout: check cancelled: %w", err)
	}
	res := &Result{}
	start := time.Now() //odrc:allow clock — baseline wall measurement; feeds Result.Wall, the KLayout side of measured-vs-modeled
	var err error
	switch opts.Mode {
	case Flat:
		err = checkFlat(ctx, lo, r, opts, res)
	case Deep:
		err = checkDeep(ctx, lo, r, res)
	case Tiling:
		err = checkTiling(ctx, lo, r, opts, res)
	default:
		err = fmt.Errorf("klayout: unknown mode %d", int(opts.Mode))
	}
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start) //odrc:allow clock — closes the Result.Wall measurement opened above
	if res.Modeled == 0 {
		res.Modeled = res.Wall
	}
	sortViolations(res.Violations)
	return res, nil
}

// flattenEstimate counts the polygons a full instantiation of the rule's
// input layers would materialize — Σ (cell's local layer polygons ×
// placements) — without materializing anything, so flat mode can decide to
// fall back before paying for the blow-up.
func flattenEstimate(lo *layout.Layout, r rules.Rule) int64 {
	placements := lo.Placements()
	var n int64
	for _, l := range r.Inputs() {
		for _, c := range lo.LayerCells(l) {
			n += int64(len(c.LocalPolyIndex(l))) * int64(len(placements[c.ID]))
		}
	}
	return n
}

func sortViolations(vs []rules.Violation) {
	// rules.Less is a total order, so equal violation multisets sort to the
	// same sequence regardless of the emission order a mode produced.
	sort.Slice(vs, func(i, j int) bool { return rules.Less(&vs[i], &vs[j]) })
}

// emitFn builds a violation emitter for one rule.
func emitFn(res *Result, r rules.Rule) func(checks.Marker) {
	return func(m checks.Marker) {
		res.Violations = append(res.Violations, r.Violation(m, ""))
	}
}

// checkFlat is the flat mode: full instantiation, one global sweepline. It
// flattens straight from the hierarchy, never through the engine's geometry
// cache, so it is the uncached reference that cache is tested against
// (core's TestGeoCacheIdentityMatrix).
// When the estimated flatten size trips the flatten-polys budget, the run
// degrades gracefully to tiling mode (which never materializes more than a
// tile window at a time) instead of exhausting memory.
func checkFlat(ctx context.Context, lo *layout.Layout, r rules.Rule, opts Options, res *Result) error {
	if limit := opts.Budgets.MaxFlattenPolys; limit > 0 {
		if err := budget.Check("flatten-polys", flattenEstimate(lo, r), limit); err != nil {
			res.FellBack = true
			return checkTiling(ctx, lo, r, opts, res)
		}
	}
	_, err := checkRegion(ctx, r, lo.FlattenLayer, emitFn(res, r))
	return err
}

// checkRegion is the body flat and tiling mode share: it runs one rule with
// one sweepline over flat geometry, which polysOf returns per input layer —
// the whole layout in flat mode, a tile window in tiling mode. It reports
// whether the region held any polygon on the rule's layer.
func checkRegion(ctx context.Context, r rules.Rule, polysOf func(layout.Layer) []layout.PlacedPoly, emit func(checks.Marker)) (bool, error) {
	polys := polysOf(r.Layer)
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if len(polys) == 0 {
		return false, nil
	}
	switch r.Kind {
	case rules.Spacing:
		lim := r.SpacingLimit()
		boxes := make([]geom.Rect, len(polys))
		for i := range polys {
			boxes[i] = polys[i].Shape.MBR().Expand(lim.Reach())
			checks.CheckNotchLim(polys[i].Shape, lim, emit)
		}
		if _, err := sweep.Overlaps(boxes, func(a, b int) {
			checks.CheckSpacingLim(polys[a].Shape, polys[b].Shape, lim, emit)
		}); err != nil {
			return false, err
		}
	case rules.Enclosure:
		metals := polysOf(r.Outer)
		viaBoxes := make([]geom.Rect, len(polys))
		for i := range polys {
			viaBoxes[i] = polys[i].Shape.MBR().Expand(r.Min)
		}
		metalBoxes := make([]geom.Rect, len(metals))
		for i := range metals {
			metalBoxes[i] = metals[i].Shape.MBR()
		}
		cands := make([][]geom.Polygon, len(polys))
		if _, err := sweep.OverlapsBetween(viaBoxes, metalBoxes, func(v, m int) {
			cands[v] = append(cands[v], metals[m].Shape)
		}); err != nil {
			return false, err
		}
		for i := range polys {
			checks.EvaluateEnclosure(polys[i].Shape, cands[i], r.Min, emit)
		}
	default:
		min := r.IntraMin(1)
		for i, pp := range polys {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return false, err
				}
			}
			r.CheckPolygon(pp.Shape, pp.Src, min, emit)
		}
	}
	return true, nil
}
