// Package xcheck re-implements the GPU design rule checker X-Check that the
// paper compares against, on the same simulated device as OpenDRC's
// parallel mode — so any performance gap between them comes purely from
// algorithmic structure, exactly the comparison the paper makes. Following
// X-Check's vertical sweeping (their Section 4.1, which the paper also
// re-implemented): the layout is *fully flattened*, all edges are packed
// into one device buffer, a scan kernel determines each edge's check range
// in the sorted order, and a check kernel tests each edge against every
// edge in its range. There is no hierarchy reuse, no row partition, and no
// MBR-pair pruning; minimum-area rules are unsupported ("X-Check is unable
// to perform area checks").
package xcheck

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"opendrc/internal/checks"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/kernels"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/sweep"
)

// ErrUnsupported marks rules X-Check cannot run (minimum area, custom
// predicates).
var ErrUnsupported = errors.New("xcheck: rule kind not supported")

// Options configure a run.
type Options struct {
	Device gpu.Props // zero value selects the GTX 1660 Ti model
}

// Result is the outcome of one rule check.
type Result struct {
	Violations []rules.Violation
	// Wall is the measured host wall time (functional kernel execution
	// included).
	Wall time.Duration
	// Modeled is the end-to-end modeled time on the CPU+GPU platform.
	Modeled time.Duration
	// Device exposes the simulated GPU for timeline inspection.
	Device *gpu.Device
}

// CheckContext runs one rule under ctx. Cancellation is cooperative: it is
// checked between the flatten, transfer and kernel phases; a cancelled run
// returns a nil result and an error wrapping ctx.Err().
func CheckContext(ctx context.Context, lo *layout.Layout, r rules.Rule, opts Options) (*Result, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	switch r.Kind {
	case rules.Area, rules.Custom, rules.Rectilinear:
		return nil, ErrUnsupported
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("xcheck: check cancelled: %w", err)
	}
	if opts.Device.SMs == 0 {
		opts.Device = gpu.GTX1660Ti()
	}
	dev := gpu.NewDevice(opts.Device)
	stream := dev.NewStream("xcheck")
	res := &Result{Device: dev}
	start := time.Now() //odrc:allow clock — baseline wall measurement; feeds Result.Wall for the measured-vs-modeled comparison

	collect := func(h kernels.Hit) {
		res.Violations = append(res.Violations, r.Violation(h.Marker, ""))
	}

	// Host: flatten the whole layer (X-Check operates on flat layouts).
	hostStart := time.Now() //odrc:allow clock — host flatten phase; the elapsed time advances the modeled device clock below
	var shapes []geom.Polygon
	for _, pp := range lo.FlattenLayer(r.Layer) {
		shapes = append(shapes, pp.Shape)
	}
	dev.HostAdvance(time.Since(hostStart)) //odrc:allow clock — measured host time enters the modeled timeline via HostAdvance
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("xcheck: check cancelled: %w", err)
	}

	switch r.Kind {
	case rules.Width:
		edges, err := transfer(stream, shapes)
		if err != nil {
			return nil, err
		}
		kernels.SpacingSweep(stream, edges, checks.Lim(r.Min), kernels.FilterWidth, collect)
	case rules.Spacing:
		edges, err := transfer(stream, shapes)
		if err != nil {
			return nil, err
		}
		lim := r.SpacingLimit()
		kernels.NotchBrute(stream, edges, lim, collect)
		kernels.SpacingSweep(stream, edges, lim, kernels.FilterSpacing, collect)
	case rules.Enclosure:
		hostStart = time.Now() //odrc:allow clock — host candidate-sweep phase; elapsed time advances the modeled device clock below
		var metals []geom.Polygon
		for _, pp := range lo.FlattenLayer(r.Outer) {
			metals = append(metals, pp.Shape)
		}
		// Candidate lists from a host-side sweep over flat boxes.
		cands := make([][]int32, len(shapes))
		viaBoxes := make([]geom.Rect, len(shapes))
		for i := range shapes {
			viaBoxes[i] = shapes[i].MBR().Expand(r.Min)
		}
		metalBoxes := make([]geom.Rect, len(metals))
		for i := range metals {
			metalBoxes[i] = metals[i].MBR()
		}
		_, serr := sweep.OverlapsBetween(viaBoxes, metalBoxes, func(v, m int) {
			cands[v] = append(cands[v], int32(m))
		})
		dev.HostAdvance(time.Since(hostStart)) //odrc:allow clock — measured host time enters the modeled timeline via HostAdvance
		if serr != nil {
			return nil, serr
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("xcheck: check cancelled: %w", err)
		}
		ie, err := transfer(stream, shapes)
		if err != nil {
			return nil, err
		}
		oe, err := transfer(stream, metals)
		if err != nil {
			return nil, err
		}
		kernels.EnclosureEval(stream, ie, oe, cands, r.Min, collect)
	}
	stream.Synchronize()
	res.Wall = time.Since(start) //odrc:allow clock — closes the Result.Wall measurement opened above
	res.Modeled = dev.HostClock()
	sortViolations(res.Violations)
	return res, nil
}

// transfer packs shapes and models the host-to-device copy; an allocator
// failure (device OOM under a memory limit) surfaces as an error.
func transfer(s *gpu.Stream, shapes []geom.Polygon) (*kernels.Edges, error) {
	edges := kernels.Pack(shapes)
	if err := s.AllocAsync(edges.Bytes()); err != nil {
		return nil, err
	}
	s.MemcpyAsync("edges", edges.Bytes())
	return edges, nil
}

func sortViolations(vs []rules.Violation) {
	// rules.Less is a total order shared with the engines and the KLayout
	// baseline, so cross-checked reports compare positionally.
	sort.Slice(vs, func(i, j int) bool { return rules.Less(&vs[i], &vs[j]) })
}
