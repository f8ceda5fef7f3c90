// Fixture for the ctxflow checker. Line numbers are asserted in
// checkers_test.go — append new cases at the end. ForEachCtx mirrors the
// pool fan-out entry point by name and signature; the checker only looks at
// context-typed arguments, so the fixture stays self-contained.
package fixture

import (
	"context"
	"net/http"
)

// ForEachCtx stands in for pool.ForEachCtx: a cancellable fan-out.
func ForEachCtx(ctx context.Context, n int, fn func(int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// TN: the ctx is plumbed all the way to the fan-out.
func RunAll(ctx context.Context, n int) error {
	return ForEachCtx(ctx, n, func(int) error { return nil })
}

// TP: a context-free helper mints a root before the fan-out (line 32).
func runAll(n int) error {
	return ForEachCtx(context.Background(), n, func(int) error { return nil })
}

// TN here: Drive passes no context; the uncancellable fan-out below it is
// reported where the helper mints its root (line 32).
func Drive(ctx context.Context, n int) error {
	return runAll(n)
}

// TP: fresh Background in library code with no ctx parameter, reported
// where it is passed (line 45).
func detached(n int) error {
	ctx := context.Background()
	return ForEachCtx(ctx, n, func(int) error { return nil })
}

// TP: a ctx was received but a fresh TODO is passed instead (line 51).
func Shadow(ctx context.Context, n int) error {
	fresh := context.TODO()
	return ForEachCtx(fresh, n, func(int) error { return nil })
}

// WithTenant stands in for pool.WithTenant: a context-tagging wrapper —
// takes a context, returns the derived tagged context.
func WithTenant(ctx context.Context, tenant string) context.Context {
	_ = tenant
	return ctx
}

type holder struct{ saved context.Context }

// TP (wrapper retag): Tag receives a ctx but tags a stored one — the
// result drops the caller's cancellation and tenant chain (line 66).
func (h *holder) Tag(ctx context.Context, tenant string) context.Context {
	return WithTenant(h.saved, tenant)
}

// TN: the tag rides the incoming ctx.
func (h *holder) TagOK(ctx context.Context, tenant string) context.Context {
	return WithTenant(ctx, tenant)
}

// TN: derivation through a local — the chain stays intact hop to hop.
func TagTwice(ctx context.Context, a, b string) context.Context {
	tagged := WithTenant(ctx, a)
	return WithTenant(tagged, b)
}

// TP: a struct-stored ctx reaches the fan-out (line 83); the wrapper fed
// it is not reported a second time.
func (h *holder) fanStored(n int) error {
	return ForEachCtx(WithTenant(h.saved, "t"), n, func(int) error { return nil })
}

// TN: a request's own context, derived through a timeout.
func serve(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 1)
	defer cancel()
	_ = ForEachCtx(ctx, 1, func(int) error { return nil })
}

// TN: a closure's own ctx parameter (the shape of a fault hook installed
// by a function that has no ctx itself).
func hook(check func(ctx context.Context, key string) error) func(context.Context) error {
	return func(ctx context.Context) error {
		return check(ctx, "layer#1")
	}
}

// Waived: a context-free convenience entry point, its root excused.
func Check(n int) error {
	return RunAll(context.Background(), n) //odrc:allow ctxflow — fixture: context-free entry point
}
