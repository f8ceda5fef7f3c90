package core

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// soakCycles is TestSessionSoak's length; soakHeapSlack bounds its live heap
// at the last cycle against cycle 200, when the records, the resident
// buffers and the caches of every layer the deck reads are long in place.
const (
	soakCycles    = 2000
	soakHeapSlack = 1.15
)

// TestSessionSoak drives one parallel session on ethmac@2.5 through 2 000
// mixed cycles: an edit on M1 or M2 — a sliver or track inserted, an earlier
// insert or a window of routing deleted — then a delta check; every tenth
// cycle also a plain check, both reports equal to a cold batch check of a
// layout that took the same edits; one InvalidateAll half way. What it
// holds: the live heap after a GC at the last cycle within soakHeapSlack of
// cycle 200's, no instance records in the geometry cache at any check, and
// the goroutine count back at its start once the session closes. It takes
// 30–40 s on two cores, so tier-1 skips it; check.sh runs it with
// ODRC_SOAK=1.
func TestSessionSoak(t *testing.T) {
	if os.Getenv("ODRC_SOAK") == "" {
		t.Skip("2 000-cycle session soak; set ODRC_SOAK=1 to run it")
	}
	ctx := context.Background()
	deck := synth.Deck()
	opts := Options{Mode: Parallel}
	lo, _, err := synth.Load("ethmac", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	mirror, _, err := synth.Load("ethmac", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	ses := NewSession(lo, opts)
	noRecords := func(cycle int, what string, rep *Report) {
		t.Helper()
		if rep.HostBytes.Flatten != 0 {
			t.Fatalf("cycle %d, %s: the geometry cache holds %d B of instance records", cycle, what, rep.HostBytes.Flatten)
		}
	}
	rep, err := ses.Check(ctx, deck)
	if err != nil {
		t.Fatal(err)
	}
	noRecords(0, "baseline", rep)

	rng := rand.New(rand.NewSource(52))
	boxes := map[layout.Layer]geom.Rect{
		layout.LayerM1: lo.Top.LayerMBR(layout.LayerM1),
		layout.LayerM2: lo.Top.LayerMBR(layout.LayerM2),
	}
	type insert struct {
		l layout.Layer
		r geom.Rect
	}
	var inserts []insert
	at := func(l layout.Layer, w, h int64) geom.Rect {
		b := boxes[l]
		x, y := b.XLo+rng.Int63n(b.Width()-w), b.YLo+rng.Int63n(b.Height()-h)
		return geom.R(x, y, x+w, y+h)
	}
	var heap200 uint64
	start := time.Now()
	for cycle := 1; cycle <= soakCycles; cycle++ {
		var ed layout.Edit
		switch op := rng.Intn(4); {
		case op == 0:
			ed = layout.Edit{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: at(layout.LayerM1, 9, 60)}
		case op == 1:
			ed = layout.Edit{Op: layout.OpInsertRect, Layer: layout.LayerM2, Rect: at(layout.LayerM2, 300, 30)}
		case op == 2 && len(inserts) > 0:
			k := rng.Intn(len(inserts))
			ed = layout.Edit{Op: layout.OpDeleteRegion, Layer: inserts[k].l, Rect: inserts[k].r}
			inserts[k] = inserts[len(inserts)-1]
			inserts = inserts[:len(inserts)-1]
		default:
			ed = layout.Edit{Op: layout.OpDeleteRegion, Layer: layout.LayerM2, Rect: at(layout.LayerM2, 300, 150)}
		}
		if ed.Op == layout.OpInsertRect {
			inserts = append(inserts, insert{ed.Layer, ed.Rect})
		}
		if _, err := ses.Edit(ctx, []layout.Edit{ed}); err != nil {
			t.Fatalf("cycle %d: edit: %v", cycle, err)
		}
		if _, err := mirror.ApplyEdits([]layout.Edit{ed}); err != nil {
			t.Fatal(err)
		}
		delta, info, err := ses.DeltaCheck(ctx, deck)
		if err != nil {
			t.Fatalf("cycle %d: delta check: %v", cycle, err)
		}
		if !info.Planned && cycle != soakCycles/2+1 {
			t.Fatalf("cycle %d: delta check fell back: %+v", cycle, info)
		}
		noRecords(cycle, "delta check", delta)
		if cycle%10 == 0 {
			plain, err := ses.Check(ctx, deck)
			if err != nil {
				t.Fatalf("cycle %d: plain check: %v", cycle, err)
			}
			noRecords(cycle, "plain check", plain)
			e := New(opts)
			if err := e.AddRules(deck...); err != nil {
				t.Fatal(err)
			}
			cold, err := e.CheckContext(ctx, mirror)
			if err != nil {
				t.Fatal(err)
			}
			want := canonJSON(t, cold)
			if canonJSON(t, delta) != want || canonJSON(t, plain) != want {
				t.Fatalf("cycle %d: delta check equals cold: %v, plain check: %v",
					cycle, canonJSON(t, delta) == want, canonJSON(t, plain) == want)
			}
		}
		if cycle == soakCycles/2 {
			if err := ses.InvalidateAll(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if cycle%200 == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			t.Logf("cycle %4d: live heap %.1f MB, %d inserts standing, %.1f s", cycle, float64(ms.HeapAlloc)/1e6, len(inserts), time.Since(start).Seconds())
			if cycle == 200 {
				heap200 = ms.HeapAlloc
			}
			if cycle == soakCycles && float64(ms.HeapAlloc) > soakHeapSlack*float64(heap200) {
				t.Errorf("live heap grew from %.1f MB at cycle 200 to %.1f MB at cycle %d (bound %.2fx)",
					float64(heap200)/1e6, float64(ms.HeapAlloc)/1e6, cycle, soakHeapSlack)
			}
		}
	}
	if err := ses.Close(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the session closed, %d before it opened", n, goroutines)
	}
}
