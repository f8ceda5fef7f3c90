package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"opendrc/internal/geocache"
	"opendrc/internal/geom"
	"opendrc/internal/gpu"
	"opendrc/internal/layout"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
)

// The session layer. A batch check pays its full cost every run: the layout
// is flattened and packed per deck, and the parallel mode uploads every
// layer's edge buffer to a device created for the occasion. A Session pins
// that expensive state to the lifetime of a loaded design instead — one
// geometry cache (flattens, packs, MBR tables, row partitions) and, in
// parallel mode, one simulated device whose resident layer buffers survive
// from check to check — so a service holding designs open (the odrcd daemon)
// answers repeat checks at warm-cache cost. Sessions trade nothing for the
// speed: violations, failures, and degradation behavior are bit-identical
// to batch runs of the same deck (see Report.WriteCanonicalJSON); only the
// cost counters and timings differ.

// ErrSessionClosed is returned by Check on a closed session.
var ErrSessionClosed = errors.New("core: session closed")

// Session holds one layout's resident check state across runs. Checks,
// invalidation, and Close serialize on an internal lock, so a Session is
// safe for concurrent use — though callers wanting throughput should
// serialize externally (the odrcd daemon runs one check at a time per
// session and queues the rest). The lock is a 1-token channel rather than a
// sync.Mutex so waiters can honor their context.
type Session struct {
	opts Options
	lo   *layout.Layout

	mu  chan struct{} // 1-token semaphore: a mutex Check could not hold across ctx waits
	geo *geocache.Cache

	smu    sync.Mutex // guards the pc pointer so observers need not queue behind checks
	pc     *parCtx    //odrc:guardedby smu
	closed bool       // written with mu held

	// Results across time, all guarded by the session lock: one record per
	// rule (record.go); the per-layer versions records are stamped with, which
	// markDirty advances when dirt is recorded; the dirty regions pending since
	// the last check, which plan it; the geometry cache's own dirt, kept until
	// a check reads the layer through the cache, and the layers the cache may
	// hold a flatten of (delta.go, applyPending); the instance enumeration,
	// which no edit can change; and the check-traffic counters behind
	// StatsSnapshot.
	records    recordStore
	ver        map[layout.Layer]uint64
	pending    dirtyRegions
	dirt       dirtyRegions
	cached     map[layout.Layer]bool
	placements [][]geom.Transform
	stats      SessionStats

	// forceExec makes plain checks execute rules whose record they would
	// replay. Tests set it to get the executed run a replayed one must be
	// indistinguishable from; nothing else does.
	forceExec bool
}

// NewSession pins a layout and options into a resident session. The options
// are fixed for the session's lifetime — mode, device model, budgets, fault
// injector, and trace recorder apply to every check it serves. (A session
// recorder accumulates spans across checks on one timeline; pass nil for
// the usual zero-cost default.)
func NewSession(lo *layout.Layout, opts Options) *Session {
	opts = withDefaults(opts)
	return &Session{opts: opts, lo: lo, mu: make(chan struct{}, 1), geo: newGeoCache(opts)}
}

// lock acquires the session lock, honoring ctx so a caller queued behind a
// long check can still time out or disconnect.
func (s *Session) lock(ctx context.Context) error {
	select {
	case s.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) unlock() { <-s.mu }

// Layout returns the session's pinned layout.
func (s *Session) Layout() *layout.Layout { return s.lo }

// Check runs deck against the session's layout, reusing the resident
// geometry cache and device buffers, and replaying — violations, Stats and
// the modeled device work — every rule whose record is current instead of
// executing it. The deck is per-call: a session serves full-deck and
// single-rule checks interchangeably. Cancellation semantics match
// Engine.CheckContext; the resident state stays consistent whether the check
// completes, degrades, or is cancelled (partial uploads are session state
// like any other and are freed on Close; records commit rule by rule, each
// only once its rule succeeded).
func (s *Session) Check(ctx context.Context, deck rules.Deck) (*Report, error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	defer s.unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	// Presence spans the whole check — serial sections included — so a
	// context-carried scheduler can fair-share it against co-tenant load.
	defer pool.EnterCtx(ctx)()
	s.stats.FullChecks++
	rep, _, err := s.run(ctx, deck, false)
	return rep, err
}

// deviceCtx returns the session's persistent device context, creating it on
// the first parallel check and trimming the retained timeline on later ones
// so each Report's device view covers its own run. Called with the session
// lock held.
func (s *Session) deviceCtx() *parCtx {
	s.smu.Lock()
	pc := s.pc
	s.smu.Unlock()
	if pc == nil {
		pc = newParCtx(s.opts, s.geo, true)
		s.smu.Lock()
		s.pc = pc
		s.smu.Unlock()
		return pc
	}
	pc.dev.TrimTimeline()
	return pc
}

// Close releases the session's resident state: every device-resident buffer
// is freed (ordered after all enqueued kernels, mirroring upload order) and
// both streams synchronize, so the device pool's in-use bytes return to
// zero deterministically. Close is idempotent; a closed session fails
// subsequent Checks with ErrSessionClosed. Close never interrupts a running
// check — it waits its turn on the session lock (pass a cancellable ctx to
// bound that wait; the engine observes cancellation at rule boundaries).
func (s *Session) Close(ctx context.Context) error {
	if err := s.lock(ctx); err != nil {
		return err
	}
	defer s.unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.smu.Lock()
	pc := s.pc
	s.pc = nil
	s.smu.Unlock()
	if pc != nil {
		pc.freeResident()
		pc.cs.Synchronize()
		pc.io.Synchronize()
	}
	return nil
}

// Device exposes the session's resident simulated device (nil before the
// first parallel check or after Close) — pool accounting and the modeled
// clock are the observable session footprint. Device never queues behind a
// running check, so status endpoints stay responsive.
func (s *Session) Device() *gpu.Device {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.pc == nil {
		return nil
	}
	return s.pc.dev
}

// ModeledClock returns the session device's cumulative modeled time (zero
// when no parallel check has run). Non-blocking like Device.
func (s *Session) ModeledClock() time.Duration {
	if dev := s.Device(); dev != nil {
		return dev.HostClock()
	}
	return 0
}
