package klayout

import (
	"context"
	"fmt"
	"sort"
	"time"

	"opendrc/internal/checks"
	"opendrc/internal/faults"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// Tiling mode: the layout plane is cut into a fixed grid of tiles; each tile
// processes the flat geometry intersecting the tile extended by the rule
// halo, and results are attributed to the tile containing the marker's
// center so halo duplicates are dropped. As in real KLayout, tiles execute
// on a worker pool (Options.Workers); per-tile wall times are additionally
// measured so the Options.Threads-worker makespan can be modeled by
// longest-processing-time scheduling and reported next to the measured
// pooled wall time.

// checkTiling runs one rule in tiling mode.
func checkTiling(ctx context.Context, lo *layout.Layout, r rules.Rule, opts Options, res *Result) error {
	bounds := geom.EmptyRect()
	for _, l := range r.Inputs() {
		bounds = bounds.Union(lo.Top.LayerMBR(l))
	}
	if bounds.Empty() {
		return nil
	}
	halo := r.Reach()
	ts := opts.TileSize
	if ts <= 0 {
		ext := bounds.Width()
		if h := bounds.Height(); h > ext {
			ext = h
		}
		ts = ext / 8
		if ts < 1000 {
			ts = 1000
		}
	}

	var tiles []geom.Rect
	for ty := bounds.YLo; ty <= bounds.YHi; ty += ts {
		for tx := bounds.XLo; tx <= bounds.XHi; tx += ts {
			tiles = append(tiles, geom.R(tx, ty, tx+ts-1, ty+ts-1))
		}
	}

	// Tiles are independent by construction (halo ownership drops
	// duplicates), so they fan out across the worker pool; per-tile slots
	// merged in grid order keep the violation list bit-identical for every
	// worker count.
	type tileResult struct {
		vs        []rules.Violation
		dur       time.Duration
		processed bool
	}
	results := make([]tileResult, len(tiles))
	err := pool.ForEachCtx(trace.WithTask(ctx, "tile"), opts.Workers, len(tiles), func(i int) error {
		if err := opts.Faults.Hit(ctx, faults.SiteTile, fmt.Sprintf("tile#%d", i)); err != nil {
			return err
		}
		tile := tiles[i]
		tr := &results[i]
		start := time.Now() //odrc:allow clock — per-tile wall time; input to the Threads-worker LPT makespan model
		window := tile.Expand(halo)
		processed, err := checkRegion(ctx, r, func(l layout.Layer) []layout.PlacedPoly {
			polys, _ := lo.QueryLayer(l, window)
			return polys
		}, func(m checks.Marker) {
			// Ownership: the tile containing the marker center reports
			// it; halo copies elsewhere are dropped.
			if tile.Contains(m.Box.Center()) {
				tr.vs = append(tr.vs, r.Violation(m, ""))
			}
		})
		if err != nil {
			return err
		}
		tr.processed = processed
		if tr.processed {
			tr.dur = time.Since(start) //odrc:allow clock — closes the per-tile measurement opened above
		}
		return nil
	})
	if err != nil {
		return err
	}

	var tileTimes []time.Duration
	for i := range results {
		res.Violations = append(res.Violations, results[i].vs...)
		if results[i].processed {
			tileTimes = append(tileTimes, results[i].dur)
			res.Tiles++
		}
	}
	res.Modeled = makespan(tileTimes, opts.Threads)
	return nil
}

// makespan models LPT scheduling of tile durations onto the worker pool.
func makespan(times []time.Duration, threads int) time.Duration {
	if len(times) == 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	workers := make([]time.Duration, threads)
	for _, t := range sorted {
		min := 0
		for w := 1; w < threads; w++ {
			if workers[w] < workers[min] {
				min = w
			}
		}
		workers[min] += t
	}
	var out time.Duration
	for _, w := range workers {
		if w > out {
			out = w
		}
	}
	return out
}
