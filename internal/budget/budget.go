// Package budget defines the engine's resource budgets: configurable hard
// limits on the quantities that make a DRC run blow up on pathological
// inputs — the instantiated-polygon count of a layer flatten (the KLayout
// flat-mode explosion the paper quantifies on jpeg), the packed edge count
// of one device batch, and the simulated device pool's byte usage. A
// tripped budget surfaces as a typed *Error that unwraps to ErrExceeded, so
// callers can degrade gracefully (skip the rule, fall back to tiling)
// instead of exhausting host memory.
package budget

import (
	"errors"
	"fmt"
)

// ErrExceeded is the sentinel all budget errors unwrap to; test with
// errors.Is(err, budget.ErrExceeded).
var ErrExceeded = errors.New("budget exceeded")

// Error reports one tripped budget. It marshals to JSON as
// {"resource":..., "used":..., "limit":...} so report failures and service
// error bodies carry the tripped budget structurally instead of forcing
// consumers to parse the rendered message.
type Error struct {
	Resource string `json:"resource"` // "flatten-polys", "packed-edges", "device-pool-bytes"
	Limit    int64  `json:"limit"`    // the configured budget
	Used     int64  `json:"used"`     // the demand that tripped it
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("budget exceeded: %s: need %d, limit %d", e.Resource, e.Used, e.Limit)
}

// Unwrap ties the typed error to the ErrExceeded sentinel.
func (e *Error) Unwrap() error { return ErrExceeded }

// FromError extracts the typed budget error wrapped anywhere in err's chain,
// or nil: the one-liner consumers use to attach structured budget fields to
// their own error bodies.
func FromError(err error) *Error {
	var be *Error
	if errors.As(err, &be) {
		return be
	}
	return nil
}

// Check returns a *Error when used exceeds limit; a limit <= 0 means
// unlimited and always passes.
func Check(resource string, used, limit int64) error {
	if limit <= 0 || used <= limit {
		return nil
	}
	return &Error{Resource: resource, Limit: limit, Used: used}
}

// Limits bundles the engine's resource budgets. The zero value imposes no
// limits.
type Limits struct {
	// MaxFlattenPolys caps the number of polygon instances any single
	// layer flatten may materialize: the parallel mode's flatten phases,
	// and KLayout flat mode, which falls back to tiling instead of failing.
	// The sequential mode never flattens, so it never trips this budget.
	MaxFlattenPolys int64
	// MaxPackedEdges caps the packed edge count of one device batch.
	MaxPackedEdges int64
	// MaxDeviceBytes caps the simulated device's stream-ordered pool; an
	// allocation pushing usage past it returns an OOM error instead of
	// growing without bound.
	MaxDeviceBytes int64
}
