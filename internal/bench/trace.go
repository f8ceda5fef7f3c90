package bench

import (
	"context"
	"fmt"

	"opendrc/internal/core"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// TraceRunContext runs the full evaluation deck on one design under ctx
// with the given recorder attached, producing a representative timeline of
// a whole check (every rule kind, the geometry cache warming up, the pool
// fan-outs, and — in parallel mode — the simulated device streams). As in
// RunCellContext, a degraded report is an error: a trace of a partial run
// would be misleading next to the benchmark numbers.
func TraceRunContext(ctx context.Context, design string, mode core.Mode, scale float64, workers int, rec *trace.Recorder) (*core.Report, error) {
	lo, _, err := synth.Load(design, scale)
	if err != nil {
		return nil, err
	}
	rec.SetMeta("design", design)
	rec.SetMeta("scale", scale)
	eng := core.New(core.Options{Mode: mode, Workers: workers, Trace: rec})
	if err := eng.AddRules(synth.Deck()...); err != nil {
		return nil, err
	}
	rep, err := eng.CheckContext(ctx, lo)
	if err != nil {
		return nil, err
	}
	if rep.Degraded {
		return nil, fmt.Errorf("bench: degraded report for %s (%d rule failures)", design, len(rep.Failures))
	}
	return rep, nil
}
