// Fixture for the ctxflow checker. Line numbers are asserted in
// checkers_test.go — append new cases at the end. ForEachCtx mirrors the
// pool fan-out entry point by name and signature; the checker matches the
// name plus a context parameter, so the fixture stays self-contained.
package fixture

import "context"

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

// Context-free compat wrapper, waived like the real core.Engine.Check.
func runAll(n int) error {
	return ForEachCtx(context.Background(), n, func(int) error { return nil }) //odrc:allow ctxflow — fixture: compat wrapper, mirrors core.Engine.Check
}

// TP (interprocedural): Drive received a ctx but fans out through a
// context-free callee — the fan-out below is uncancellable (line 35).
func Drive(ctx context.Context, n int) error {
	return runAll(n)
}

// deepRun reaches the fan-out two hops down.
func deepRun(n int) error { return runAll(n) }

// TP (transitive): same drop, two call hops above the pool (line 43).
func DriveDeep(ctx context.Context, n int) error {
	return deepRun(n)
}

// TP: fresh Background in library code with no ctx parameter (line 48).
func detached(n int) error {
	ctx := context.Background()
	return ForEachCtx(ctx, n, func(int) error { return nil })
}

// TP: a ctx was received but a fresh TODO is used instead (line 54).
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
// result drops the caller's cancellation and tenant chain (line 70).
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
