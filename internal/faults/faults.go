// Package faults is OpenDRC's deterministic fault-injection harness. The
// hardened pipeline (per-rule isolation, budgets, cancellation) is only
// trustworthy if its failure paths are exercised, so the chaos tests drive
// every path through seed-driven injections registered at the pipeline's
// existing seams:
//
//   - SiteRule — the engine's per-rule dispatch (core.CheckContext);
//   - SiteCell — the per-cell-definition fan-out running inside pool
//     workers (intra checks), exercising pool panic recovery;
//   - SiteRow — the per-partition-row fan-out of the spacing sweep;
//   - SiteAlloc — the simulated device's stream-ordered allocator;
//   - SiteTile — the KLayout tiling worker loop;
//   - SiteFlatten — the geometry cache's per-layer flatten computation; a
//     single injected failure is cached and degrades every rule sharing the
//     layer, exercising cross-rule failure propagation;
//   - truncated GDSII reads via TruncateReader at the io.Reader seam.
//
// Determinism is the design constraint: whether a given hit fires depends
// only on (seed, site, key) — never on worker count, goroutine schedule, or
// hit order — so an injected failure reproduces bit-identically across
// worker counts and reruns. An Injector is carried in the options of the
// package under test; a nil *Injector is inert, so production call sites
// pay one nil check.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"
)

// Mode selects what a matched injection does.
type Mode int

// Injection modes.
const (
	// Error makes Hit return an *InjectedError.
	Error Mode = iota
	// Panic makes Hit panic with a PanicValue; the pool's recovery (or the
	// engine's per-rule guard) must convert it into a structured failure.
	Panic
	// Stall blocks Hit until the configured duration elapses or ctx is
	// cancelled (returning ctx.Err()), modeling a hung check under a
	// deadline.
	Stall
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Injection seams. Each production seam calls Hit with one of these site
// names and a deterministic key identifying the work item.
const (
	SiteRule    = "core.rule"      // key: rule ID
	SiteCell    = "core.cell"      // key: cell name (runs inside pool workers)
	SiteRow     = "core.row"       // key: "ruleID/cell/row#i" (sequential), "ruleID/sweep-row#i" (parallel sweepline rows)
	SiteAlloc   = "gpu.alloc"      // key: allocation label
	SiteTile    = "klayout.tile"   // key: "tile#i"
	SiteFlatten = "geocache.layer" // key: "layer#<n>"; fires once per cached flatten, degrading every rule sharing the layer

	// Service-layer seams (internal/server): the chaos suite reaches the
	// HTTP daemon through the same seeded (seed, site, key) mechanism as
	// the engine, so injected request and load failures reproduce
	// bit-identically across reruns and concurrency levels.

	// SiteRequest fires at the start of one admitted check request; the key
	// is the request's deterministic identity "session/check#seq" (per-
	// session arrival order, not goroutine schedule).
	SiteRequest = "server.request"
	// SiteSessionLoad fires inside the single-flight session load; the key
	// is the session ID, so every concurrent loader of that session observes
	// the same injected outcome.
	SiteSessionLoad = "server.session-load"
	// SiteSched fires when the fair scheduler dispatches a chunk; the key is
	// "<tenant>#<lo>" (the chunk's first index), so a chaos run can make one
	// tenant's chunks fail or stall while its co-tenants keep executing —
	// the isolation property the per-tenant queues exist to provide.
	SiteSched = "pool.sched"
)

// ErrInjected is the sentinel every injected error unwraps to.
var ErrInjected = errors.New("faults: injected fault")

// InjectedError is the typed error returned by an Error-mode injection.
type InjectedError struct {
	Site, Key string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected fault at %s[%s]", e.Site, e.Key)
}

// Unwrap ties injected errors to the ErrInjected sentinel.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// PanicValue is the value a Panic-mode injection panics with; recovery
// layers can recognize it to distinguish injected from organic panics.
type PanicValue struct {
	Site, Key string
}

// String implements fmt.Stringer (panic output).
func (v PanicValue) String() string {
	return fmt.Sprintf("faults: injected panic at %s[%s]", v.Site, v.Key)
}

// Injection selects the hits that fail and how they fail.
type Injection struct {
	Site string // seam to match (required)
	// Key selects one exact work item. When empty, Rate selects keys by
	// the seeded hash instead.
	Key string
	// Rate is the seed-driven selection used when Key is empty: a hit
	// fires when hash(seed, site, key)%Rate == 0, i.e. roughly one key in
	// Rate. Zero with an empty Key never fires; Rate 1 fires on every key.
	Rate uint64
	// Mode selects the failure behaviour.
	Mode Mode
	// Stall is the Stall-mode block duration.
	Stall time.Duration
	// IgnoreCancel makes a Stall ignore ctx — a non-cooperative hang, the
	// case the service watchdog exists for. The stall still returns when
	// its duration elapses, so chaos runs always terminate.
	IgnoreCancel bool
}

// Injector evaluates injections. The zero value and the nil pointer are
// inert.
type Injector struct {
	seed uint64
	injs []Injection
}

// New builds an injector with a seed (selecting which Rate-matched keys
// fail) and the active injections.
func New(seed int64, injs ...Injection) *Injector {
	return &Injector{seed: uint64(seed), injs: append([]Injection(nil), injs...)}
}

// hash mixes seed, site and key with FNV-1a followed by a splitmix64
// finalizer; the result depends only on its inputs.
func (in *Injector) hash(site, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ in.seed
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * prime
	}
	h = (h ^ '/') * prime
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// match returns the first injection selecting (site, key), or nil.
func (in *Injector) match(site, key string) *Injection {
	for i := range in.injs {
		inj := &in.injs[i]
		if inj.Site != site {
			continue
		}
		if inj.Key != "" {
			if inj.Key == key {
				return inj
			}
			continue
		}
		if inj.Rate > 0 && in.hash(site, key)%inj.Rate == 0 {
			return inj
		}
	}
	return nil
}

// Hit evaluates the seam (site, key). It is safe on a nil receiver (returns
// nil). On a match it fails per the injection's mode: Error returns an
// *InjectedError, Panic panics with a PanicValue, and Stall blocks until
// the stall elapses (then returns nil) or ctx is cancelled (then returns
// ctx.Err()).
func (in *Injector) Hit(ctx context.Context, site, key string) error {
	if in == nil {
		return nil
	}
	inj := in.match(site, key)
	if inj == nil {
		return nil
	}
	switch inj.Mode {
	case Panic:
		panic(PanicValue{Site: site, Key: key})
	case Stall:
		t := time.NewTimer(inj.Stall)
		defer t.Stop()
		if ctx == nil || inj.IgnoreCancel {
			<-t.C
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	default:
		return &InjectedError{Site: site, Key: key}
	}
}

// truncateReader cuts the stream after n bytes, returning io.EOF where the
// underlying stream would have continued — the GDSII reader must surface
// this as a clean io.ErrUnexpectedEOF-based error, never a panic.
type truncateReader struct {
	r         io.Reader
	remaining int64
}

// TruncateReader returns a reader that yields at most n bytes of r and then
// reports io.EOF, simulating a truncated file or dropped connection.
func TruncateReader(r io.Reader, n int64) io.Reader {
	return &truncateReader{r: r, remaining: n}
}

// Read implements io.Reader.
func (t *truncateReader) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.r.Read(p)
	t.remaining -= int64(n)
	if err == nil && t.remaining <= 0 {
		err = io.EOF
	}
	return n, err
}
