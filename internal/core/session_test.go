package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"opendrc/internal/faults"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// Session semantics: resident state makes repeat checks cheaper, never
// different. The canonical report form is the contract — byte-identical
// between batch runs, cold sessions, and warm sessions — while the stats
// show the residency doing its job (warm checks hit the cache and reuse
// device buffers instead of re-uploading).

// canonJSON renders the report's canonical form.
func canonJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteCanonicalJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSessionParity checks, in both modes: a session's first (cold) and
// second (warm) full-deck checks produce the canonical bytes of a batch
// run, and the warm parallel check reuses resident device buffers instead
// of uploading.
func TestSessionParity(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		e := New(Options{Mode: mode})
		if err := e.AddRules(deck...); err != nil {
			t.Fatal(err)
		}
		batch, err := e.CheckContext(ctx, lo)
		if err != nil {
			t.Fatalf("%v: batch: %v", mode, err)
		}
		want := canonJSON(t, batch)

		ses := NewSession(lo, Options{Mode: mode})
		defer ses.Close(ctx)
		cold, err := ses.Check(ctx, deck)
		if err != nil {
			t.Fatalf("%v: cold session check: %v", mode, err)
		}
		if got := canonJSON(t, cold); got != want {
			t.Fatalf("%v: cold session report differs from batch:\n%s\nvs\n%s", mode, got, want)
		}
		coldOps := 0
		if cold.Device != nil {
			coldOps = cold.Device.OpCount() // watermark before the warm run enqueues
		}
		warm, err := ses.Check(ctx, deck)
		if err != nil {
			t.Fatalf("%v: warm session check: %v", mode, err)
		}
		if got := canonJSON(t, warm); got != want {
			t.Fatalf("%v: warm session report differs from batch", mode)
		}

		// Warm-session cost shape: everything the cold check computed is a
		// hit the second time around.
		if warm.Stats.FlattenCacheMisses != 0 {
			t.Fatalf("%v: warm check missed the session cache: %+v", mode, warm.Stats)
		}
		if mode == Parallel {
			if cold.Stats.DeviceUploads == 0 {
				t.Fatalf("cold parallel check uploaded nothing: %+v", cold.Stats)
			}
			if warm.Stats.DeviceUploads != 0 {
				t.Fatalf("warm parallel check re-uploaded %d resident layers", warm.Stats.DeviceUploads)
			}
			if warm.Stats.DeviceReuses == 0 {
				t.Fatalf("warm parallel check never reused a resident buffer")
			}
			// Per-run device views: the warm report's modeled time is this
			// run's delta, and its timeline was trimmed to this run.
			if warm.Modeled <= 0 || warm.Modeled >= ses.Device().HostClock() {
				t.Fatalf("warm Modeled = %v not a per-run delta of session clock %v",
					warm.Modeled, ses.Device().HostClock())
			}
			for _, r := range warm.Device.Timeline() {
				if int(r.Seq) < coldOps {
					t.Fatalf("warm timeline retains cold-run record seq %d", r.Seq)
				}
			}
		}
	}
}

// TestSessionSingleRule runs one rule through a warm session and demands
// the canonical bytes of a batch engine configured with only that rule.
func TestSessionSingleRule(t *testing.T) {
	lo, _, err := synth.Load("sha3", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	one := deck[1:2]
	ctx := context.Background()

	e := New(Options{Mode: Parallel})
	if err := e.AddRules(one...); err != nil {
		t.Fatal(err)
	}
	batch, err := e.CheckContext(ctx, lo)
	if err != nil {
		t.Fatal(err)
	}

	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	if _, err := ses.Check(ctx, deck); err != nil { // warm the session with the full deck
		t.Fatal(err)
	}
	got, err := ses.Check(ctx, one)
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, got) != canonJSON(t, batch) {
		t.Fatalf("single-rule session report differs from single-rule batch")
	}
}

// TestSessionCloseReleasesDevice pins the deterministic teardown: resident
// buffers hold device pool bytes between checks, Close frees every one,
// and a closed session refuses further checks. Close is idempotent.
func TestSessionCloseReleasesDevice(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ses := NewSession(lo, Options{Mode: Parallel})
	if _, err := ses.Check(ctx, synth.Deck()); err != nil {
		t.Fatal(err)
	}
	dev := ses.Device()
	if dev == nil {
		t.Fatal("no session device after a parallel check")
	}
	if inUse, _, _, _ := dev.PoolStats(); inUse == 0 {
		t.Fatal("no resident bytes held between checks; session residency is off")
	}
	if err := ses.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if inUse, _, _, _ := dev.PoolStats(); inUse != 0 {
		t.Fatalf("Close left %d bytes in the device pool", inUse)
	}
	if err := ses.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := ses.Check(ctx, synth.Deck()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Check after Close = %v, want ErrSessionClosed", err)
	}
	if err := ses.Invalidate(ctx, LayerRegion{Layer: 1}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Invalidate after Close = %v, want ErrSessionClosed", err)
	}
	if err := ses.InvalidateAll(ctx); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("InvalidateAll after Close = %v, want ErrSessionClosed", err)
	}
}

// TestSessionInvalidate drops a warm session's resident geometry and checks
// the next run recomputes (cache misses, re-uploads) yet reports the same
// canonical bytes. Layer-scoped invalidation keeps unrelated layers warm.
func TestSessionInvalidate(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	ctx := context.Background()
	ses := NewSession(lo, Options{Mode: Parallel})
	defer ses.Close(ctx)
	cold, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	want := canonJSON(t, cold)

	if err := ses.InvalidateAll(ctx); err != nil { // drop everything
		t.Fatal(err)
	}
	redo, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, redo) != want {
		t.Fatalf("post-invalidate report differs")
	}
	if redo.Stats.FlattenCacheMisses == 0 || redo.Stats.DeviceUploads == 0 {
		t.Fatalf("invalidate did not force recomputation: %+v", redo.Stats)
	}

	// Layer-scoped: invalidating one layer leaves the others resident.
	var spacingLayer layout.Layer
	for _, r := range deck {
		if r.Kind == rules.Spacing {
			spacingLayer = r.Layer
			break
		}
	}
	if err := ses.Invalidate(ctx, LayerRegion{Layer: spacingLayer}); err != nil {
		t.Fatal(err)
	}
	part, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, part) != want {
		t.Fatalf("post-partial-invalidate report differs")
	}
	if part.Stats.DeviceUploads == 0 {
		t.Fatalf("partial invalidate did not evict the layer's resident buffer: %+v", part.Stats)
	}
	if part.Stats.DeviceReuses == 0 {
		t.Fatalf("partial invalidate evicted unrelated resident buffers: %+v", part.Stats)
	}
}

// TestSessionCancelDoesNotPoison cancels a session check mid-run (stall
// injection parked at a deterministic rule, context timeout fires) and then
// demands a subsequent check on the same session still matches batch — the
// fault-tolerance property the service layer leans on.
func TestSessionCancelDoesNotPoison(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	stallRule := deck[1].ID
	rest := append(append(rules.Deck{}, deck[0]), deck[2:]...)
	inj := faults.New(1, faults.Injection{
		Site: faults.SiteRule, Key: stallRule, Mode: faults.Stall, Stall: time.Hour,
	})
	ctx := context.Background()
	for _, mode := range []Mode{Sequential, Parallel} {
		ses := NewSession(lo, Options{Mode: mode, Faults: inj})
		cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		rep, err := ses.Check(cctx, deck)
		cancel()
		if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: stalled check = (%v, %v), want nil report and deadline error", mode, rep, err)
		}

		// The session must still serve the untouched rules, identically to a
		// batch engine under the same injector.
		e := New(Options{Mode: mode, Faults: inj})
		if err := e.AddRules(rest...); err != nil {
			t.Fatal(err)
		}
		batch, err := e.CheckContext(ctx, lo)
		if err != nil {
			t.Fatalf("%v: batch: %v", mode, err)
		}
		after, err := ses.Check(ctx, rest)
		if err != nil {
			t.Fatalf("%v: post-cancel session check: %v", mode, err)
		}
		if canonJSON(t, after) != canonJSON(t, batch) {
			t.Fatalf("%v: session poisoned by cancelled check", mode)
		}
		if err := ses.Close(ctx); err != nil {
			t.Fatalf("%v: Close: %v", mode, err)
		}
	}
}
