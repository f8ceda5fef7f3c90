package core

import (
	"context"
	"fmt"

	"opendrc/internal/geocache"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
)

// checkSequential runs the deck through the hierarchical CPU branch. Each
// rule executes under the engine's fault-isolation guard: a failing rule
// degrades the report instead of aborting the run, while cancellation
// aborts between (and inside) rules.
func (e *Engine) checkSequential(ctx context.Context, lo *layout.Layout, rep *Report, ses *Session, geo *geocache.Cache) error {
	placements, err := e.instancePlacements(lo, ses, func(fn func()) {
		defer rep.Profile.Phase("instance-enumeration")()
		fn()
	})
	if err != nil {
		return err
	}
	for _, r := range e.deck {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: check cancelled: %w", err)
		}
		// Rule boundary: let a lagging co-tenant's check run ahead of this
		// one's next serial stretch (no-op without a context scheduler).
		pool.YieldCtx(ctx)
		rp := e.plan.of(r)
		if rp != nil && rp.mode == planSkip {
			// Record current: its violations are the rule's.
			rep.Violations = append(rep.Violations, rp.rec.violations...)
			rep.endSegment(r.ID, true)
			continue
		}
		e.opts.Logger.Debugf("seq: rule %s", r)
		r := r
		w := ruleWindow{rule: r.ID, m0: rep.Profile.Elapsed()}
		err := e.runRule(ctx, rep, r, rp, ses, nil, func() error {
			switch r.Kind {
			case rules.Spacing:
				return e.runSpacingSeq(ctx, lo, r, placements, rep, geo)
			case rules.Enclosure:
				return e.runEnclosureSeq(ctx, lo, r, placements, rep)
			default:
				return e.runIntraSeq(ctx, lo, r, placements, rep)
			}
		})
		if err != nil {
			return err
		}
		w.m1 = rep.Profile.Elapsed()
		w.host = w.m1 - w.m0
		rep.ruleWindows = append(rep.ruleWindows, w)
	}
	return nil
}
