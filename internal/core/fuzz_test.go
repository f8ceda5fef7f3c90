package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// FuzzSessionOps interleaves everything a resident session's clients can do
// — edits on the three metal layers and the two via layers, metal deletes
// under vias, spurious invalidations, full, single-rule, sub-deck and delta
// checks, checks cancelled before or while they run — on one parallel-mode
// session, and after every check that returns a report demands the
// canonical bytes of the trivial model: a cold batch check of a fresh layout
// given the same edit batches. The session patches its
// resident layer records in place, each at the first check that reads the
// layer through the cache and with all the dirt gathered since the last
// patch, so this is the property that says no sequence of deferred patches
// ever shows a reader stale geometry.
//
// The design is ethmac@0.1: 16 M1 partition rows (edits patch), single-row
// M2/M3 (edits drop the layer), and a 1.5 ms cold check.

const (
	fuzzDesign  = "ethmac"
	fuzzScale   = 0.1
	fuzzOpBytes = 4  // op, layer/rule selector, x (or polls before a cancel), y
	fuzzMaxOps  = 32 // bounds one input's cost
)

var fuzzLayers = [...]layout.Layer{layout.LayerM1, layout.LayerM2, layout.LayerM3}

// Op codes (data[0] % fuzzNumOps). Inserts come in three shapes so rows get
// bridged and gaps get filled: a sub-min-width sliver, a horizontal track and
// a tall column. fuzzVia inserts a via-sized square on a via layer and
// fuzzUncover deletes the metal under an existing via, which loses its best
// candidate. New codes are appended, so the seeds keep their meaning.
const (
	fuzzSliver = iota
	fuzzTrack
	fuzzColumn
	fuzzDelete
	fuzzInvalidate
	fuzzFull
	fuzzRule
	fuzzDelta
	fuzzCancel
	fuzzSubDeck
	fuzzVia
	fuzzUncover
	fuzzNumOps
)

// fuzzVias are the via layers fuzzVia inserts on and fuzzUncover uncovers
// vias of, each with the metal layers enclosing it.
var fuzzVias = [...]struct {
	via    layout.Layer
	metals []layout.Layer
}{
	{layout.LayerV1, []layout.Layer{layout.LayerM1}},
	{layout.LayerV2, []layout.Layer{layout.LayerM2, layout.LayerM3}},
}

// cancelAfter is a context that turns cancelled at its after-th Err poll
// — a deterministic stand-in for a client disconnecting mid-check. after == 0
// is cancelled from the start; a small count lands once the check has taken
// the session's pending dirt, the path where a failed check must not leave a
// record that passes for current.
type cancelAfter struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func newCancelAfter(parent context.Context, after int64) *cancelAfter {
	c := &cancelAfter{Context: parent, done: make(chan struct{})}
	c.left.Store(after)
	if after == 0 {
		close(c.done)
	}
	return c
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	switch left := c.left.Add(-1); {
	case left > 0:
		return nil
	case left == 0:
		close(c.done)
	}
	return context.Canceled
}

// fuzzRect places a w × h rect at byte-scaled coordinates inside the chip's
// extent (M1's, which is never empty) grown by a margin, so edits also land
// outside every existing row.
func fuzzRect(lo *layout.Layout, bx, by byte, w, h int64) geom.Rect {
	box := lo.Top.LayerMBR(layout.LayerM1).Expand(200)
	x := box.XLo + box.Width()*int64(bx)/255
	y := box.YLo + box.Height()*int64(by)/255
	return geom.R(x, y, x+w, y+h)
}

// serveEditBlock is the benchmark's serve_edit pattern as fuzz input: seven
// M1 slivers and three routing edits, a delta check after each, then a full
// check.
func serveEditBlock() []byte {
	var data []byte
	for i := byte(0); i < 10; i++ {
		op, layer := byte(fuzzSliver), byte(0)
		if i%3 == 2 {
			op, layer = fuzzTrack+i%2, 1+i%2
		}
		data = append(data, op, layer, 20+23*i, 240-21*i, fuzzDelta, 0, 0, 0)
	}
	return append(data, fuzzFull, 0, 0, 0)
}

func FuzzSessionOps(f *testing.F) {
	f.Add(serveEditBlock())
	// A column bridging rows, a delete that can split or empty a row, inserts
	// on (at this scale) sparsely populated M3, whole-layer dirt, a
	// single-rule check between edit and delta (it consumes the dirt, so the
	// layer's other rules are stale rather than one batch behind), and a delta
	// with nothing pending.
	f.Add([]byte{
		fuzzColumn, 0, 100, 60, fuzzDelta, 0, 0, 0,
		fuzzDelete, 0, 100, 70, fuzzDelta, 0, 0, 0,
		fuzzTrack, 2, 10, 10, fuzzDelete, 2, 10, 10, fuzzDelta, 0, 0, 0,
		fuzzInvalidate, 0, 0, 1, fuzzSliver, 0, 200, 200, fuzzRule, 3, 0, 0, fuzzDelta, 0, 0, 0,
		fuzzDelta, 0, 0, 0, fuzzFull, 0, 0, 0,
	})
	// Edits below and above every row (the margin), then the same spot twice.
	f.Add([]byte{
		fuzzSliver, 0, 0, 0, fuzzSliver, 0, 255, 255, fuzzDelta, 0, 0, 0,
		fuzzSliver, 0, 128, 128, fuzzDelta, 0, 0, 0, fuzzDelete, 0, 128, 128, fuzzDelta, 0, 0, 0,
	})
	// Cancels between an edit and its delta check: a full check cancelled
	// before it starts, then full and delta checks cancelled a few polls in,
	// after they consumed the edit's dirt.
	f.Add([]byte{
		fuzzSliver, 0, 90, 90, fuzzCancel, 0, 0, 0, fuzzDelta, 0, 0, 0,
		fuzzSliver, 0, 60, 150, fuzzCancel, 0, 3, 0, fuzzDelta, 0, 0, 0,
		fuzzTrack, 1, 40, 200, fuzzCancel, 1, 2, 0, fuzzDelta, 0, 0, 0,
		fuzzColumn, 0, 200, 30, fuzzCancel, 1, 9, 0, fuzzCancel, 0, 40, 0, fuzzDelta, 0, 0, 0,
		fuzzFull, 0, 0, 0,
	})
	// Replays: a full check, a single rule and the full deck again with
	// nothing between (the second and third answer from records); whole-layer
	// dirt on M1 and on M3 between two replays; and edit → single-rule check →
	// delta check on each metal layer, then a replay of the result.
	f.Add([]byte{
		fuzzFull, 0, 0, 0, fuzzRule, 7, 0, 0, fuzzFull, 0, 0, 0,
		fuzzInvalidate, 0, 0, 1, fuzzFull, 0, 0, 0, fuzzFull, 0, 0, 0,
		fuzzInvalidate, 2, 0, 1, fuzzRule, 9, 0, 0, fuzzFull, 0, 0, 0,
		fuzzSliver, 0, 120, 40, fuzzRule, 1, 0, 0, fuzzDelta, 0, 0, 0,
		fuzzTrack, 1, 30, 220, fuzzRule, 8, 0, 0, fuzzDelta, 0, 0, 0,
		fuzzColumn, 2, 220, 90, fuzzRule, 13, 0, 0, fuzzDelta, 0, 0, 0,
		fuzzFull, 0, 0, 0, fuzzDelta, 0, 0, 0,
	})
	// Sub-decks: the empty deck, then M1.W.1 and M1.S.1 (bits 1 and 7 of x)
	// in deck order, an edit, and the same pair reversed.
	f.Add([]byte{
		fuzzSubDeck, 0, 0, 0, fuzzSubDeck, 0, 0x82, 0,
		fuzzSliver, 0, 120, 40, fuzzSubDeck, 1, 0x82, 0, fuzzDelta, 0, 0, 0,
	})
	// Via layers: a V1 and a V2 insert, then the M1 under a V1 via and the M2
	// and M3 under V2 vias deleted, a delta check after each, and a replay.
	f.Add([]byte{
		fuzzVia, 0, 128, 128, fuzzDelta, 0, 0, 0, fuzzVia, 1, 60, 200, fuzzDelta, 0, 0, 0,
		fuzzUncover, 0, 10, 20, fuzzDelta, 0, 0, 0, fuzzUncover, 1, 30, 40, fuzzDelta, 0, 0, 0,
		fuzzUncover, 3, 50, 60, fuzzDelta, 0, 0, 0, fuzzFull, 0, 0, 0,
	})

	f.Fuzz(runSessionOps)
}

// runSessionOps executes one fuzz input.
func runSessionOps(t *testing.T, data []byte) {
	deck := synth.Deck()
	ctx := context.Background()
	{
		lo, _, err := synth.Load(fuzzDesign, fuzzScale)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Mode: Parallel, Workers: 2}
		ses := NewSession(lo, opts)
		defer ses.Close(ctx)
		var batches [][]layout.Edit

		// model is the cold batch check of a fresh layout given the same edits.
		model := func(d rules.Deck) string {
			fresh, _, err := synth.Load(fuzzDesign, fuzzScale)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if _, err := fresh.ApplyEdits(b); err != nil {
					t.Fatal(err)
				}
			}
			e := New(opts)
			if err := e.AddRules(d...); err != nil {
				t.Fatal(err)
			}
			rep, err := e.CheckContext(ctx, fresh)
			if err != nil {
				t.Fatal(err)
			}
			return canonJSON(t, rep)
		}

		for n := 0; len(data) >= fuzzOpBytes && n < fuzzMaxOps; n, data = n+1, data[fuzzOpBytes:] {
			op, sel, bx, by := data[0]%fuzzNumOps, data[1], data[2], data[3]
			l := fuzzLayers[int(sel)%len(fuzzLayers)]
			var ed layout.Edit
			switch op {
			case fuzzSliver:
				ed = layout.Edit{Op: layout.OpInsertRect, Layer: l, Rect: fuzzRect(lo, bx, by, 9, 60)}
			case fuzzTrack:
				ed = layout.Edit{Op: layout.OpInsertRect, Layer: l, Rect: fuzzRect(lo, bx, by, 300, 30)}
			case fuzzColumn:
				ed = layout.Edit{Op: layout.OpInsertRect, Layer: l, Rect: fuzzRect(lo, bx, by, 30, 900)}
			case fuzzDelete:
				ed = layout.Edit{Op: layout.OpDeleteRegion, Layer: l, Rect: fuzzRect(lo, bx, by, 300, 150)}
			case fuzzVia:
				v := fuzzVias[int(sel)%len(fuzzVias)]
				ed = layout.Edit{Op: layout.OpInsertRect, Layer: v.via, Rect: fuzzRect(lo, bx, by, 14, 14)}
			case fuzzUncover:
				// The metal (sel's next bit picks it for V2) under the via the
				// coordinate bytes pick.
				v := fuzzVias[int(sel)%len(fuzzVias)]
				vias := lo.FlattenLayer(v.via)
				if len(vias) == 0 {
					continue
				}
				box := vias[(int(bx)<<8|int(by))%len(vias)].Shape.MBR()
				ed = layout.Edit{Op: layout.OpDeleteRegion, Layer: v.metals[int(sel)/2%len(v.metals)], Rect: box}
			case fuzzInvalidate:
				// Dirt without a change: a region, or the whole layer.
				reg := LayerRegion{Layer: l}
				if by%2 == 0 {
					reg.Rects = []geom.Rect{fuzzRect(lo, bx, by, 200, 200)}
				}
				if err := ses.Invalidate(ctx, reg); err != nil {
					t.Fatal(err)
				}
				continue
			case fuzzFull:
				rep, err := ses.Check(ctx, deck)
				if err != nil {
					t.Fatal(err)
				}
				if canonJSON(t, rep) != model(deck) {
					t.Fatalf("op %d: full check differs from the cold model", n)
				}
				continue
			case fuzzRule:
				one := rules.Deck{deck[int(sel)%len(deck)]}
				rep, err := ses.Check(ctx, one)
				if err != nil {
					t.Fatal(err)
				}
				if canonJSON(t, rep) != model(one) {
					t.Fatalf("op %d: single-rule check %s differs from the cold model", n, one[0].ID)
				}
				continue
			case fuzzCancel:
				// The check fails with the cancellation — or finished inside
				// its bx polls and is then held to the model like any other.
				cctx := newCancelAfter(ctx, int64(bx))
				var rep *Report
				var err error
				if sel%2 == 0 {
					rep, err = ses.Check(cctx, deck)
				} else {
					rep, _, err = ses.DeltaCheck(cctx, deck)
				}
				switch {
				case err == nil && bx == 0:
					t.Fatalf("op %d: check succeeded under an already-cancelled context", n)
				case err == nil && canonJSON(t, rep) != model(deck):
					t.Fatalf("op %d: check that outran its cancel differs from the cold model", n)
				case err != nil && !errors.Is(err, context.Canceled):
					t.Fatalf("op %d: cancelled check: %v", n, err)
				}
				continue
			case fuzzSubDeck:
				// The rules the bits of x (deck rules 0–7) and y (8–15) pick, in
				// deck order, reversed when sel is odd; x = y = 0 is the empty
				// deck.
				var sub rules.Deck
				for i, r := range deck {
					if (uint16(bx)|uint16(by)<<8)&(1<<i) != 0 {
						sub = append(sub, r)
					}
				}
				if sel%2 == 1 {
					slices.Reverse(sub)
				}
				rep, err := ses.Check(ctx, sub)
				if err != nil {
					t.Fatal(err)
				}
				if canonJSON(t, rep) != model(sub) {
					t.Fatalf("op %d: sub-deck check of %d rules differs from the cold model", n, len(sub))
				}
				continue
			case fuzzDelta:
				rep, info, err := ses.DeltaCheck(ctx, deck)
				if err != nil {
					t.Fatal(err)
				}
				if canonJSON(t, rep) != model(deck) {
					t.Fatalf("op %d: delta check (%+v) differs from the cold model", n, info)
				}
				continue
			}
			batch := []layout.Edit{ed}
			if _, err := ses.Edit(ctx, batch); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, batch)
		}
	}
}
