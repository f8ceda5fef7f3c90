package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// TestCheckResponseHasContentLength: a check reply is rendered whole before
// it is sent, so it carries its length instead of a chunked body — for full,
// single-rule, delta and undeduplicated checks alike — and its bytes are the
// batch engine's canonical report (what `odrc -canon` prints). jpeg@0.5's
// 9 KB report is past what net/http buffers before it falls back to chunking.
func TestCheckResponseHasContentLength(t *testing.T) {
	lo, _, err := synth.Load("jpeg", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	_, ts := newTestServer(t, Config{})
	if status, body, _ := postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "u", "design": "jpeg", "scale": 0.5, "mode": "par"}); status != http.StatusCreated {
		t.Fatalf("create: %d: %s", status, body)
	}
	post := func(step string, body any) []byte {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sessions/u/check", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, resp.StatusCode, out)
		}
		if resp.ContentLength != int64(len(out)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				step, resp.ContentLength, resp.TransferEncoding, len(out))
		}
		return out
	}
	undeduped := func(d rules.Deck) string {
		e := core.New(core.Options{Mode: core.Parallel})
		if err := e.AddRules(d...); err != nil {
			t.Fatal(err)
		}
		rep, err := e.CheckContext(context.Background(), lo)
		if err != nil {
			t.Fatal(err)
		}
		return string(rep.AppendCanonicalJSON(nil))
	}

	if got := post("full", map[string]any{}); string(got) != batchCanon(t, lo, deck, core.Parallel, nil) {
		t.Fatal("full check differs from batch")
	}
	if got := post("single rule", map[string]any{"rules": []string{deck[7].ID}}); string(got) != batchCanon(t, lo, deck[7:8], core.Parallel, nil) {
		t.Fatal("single-rule check differs from batch")
	}
	if got := post("no dedup", map[string]any{"dedup": false}); string(got) != undeduped(deck) {
		t.Fatal(`"dedup": false check differs from undeduplicated batch`)
	}
	m1 := lo.Top.LayerMBR(layout.LayerM1)
	sliver := geom.R(m1.XLo+40, m1.YLo+40, m1.XLo+49, m1.YLo+100)
	edits := []map[string]any{{"op": "insert_rect", "layer": int(layout.LayerM1),
		"xlo": sliver.XLo, "ylo": sliver.YLo, "xhi": sliver.XHi, "yhi": sliver.YHi}}
	if status, body, _ := postJSON(t, ts.URL+"/v1/sessions/u/edit", map[string]any{"edits": edits}); status != http.StatusOK {
		t.Fatalf("edit: %d: %s", status, body)
	}
	got := post("delta", map[string]any{"delta": true})
	if _, err := lo.ApplyEdits([]layout.Edit{{Op: layout.OpInsertRect, Layer: layout.LayerM1, Rect: sliver}}); err != nil {
		t.Fatal(err)
	}
	if string(got) != batchCanon(t, lo, deck, core.Parallel, nil) {
		t.Fatal("delta check differs from a batch check of the edited design")
	}
}
