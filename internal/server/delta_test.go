package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// getJSON fetches a URL and decodes the JSON response.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad JSON from %s: %v: %s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// TestServerEditDeltaStats drives the incremental flow over HTTP: load, full
// check, edit, delta check (byte-identical to a cold check of the edited
// design), then the stats endpoint reporting the traffic.
func TestServerEditDeltaStats(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m := lo.Top.LayerMBR(layout.LayerM1)
	mx, my := (m.XLo+m.XHi)/2, (m.YLo+m.YHi)/2

	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "u", "uart", "par")
	if status, body, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusOK {
		t.Fatalf("warmup check: %d: %s", status, body)
	}

	// A sub-min-width sliver: fresh M1 width violations.
	edits := []map[string]any{{
		"op": "insert_rect", "layer": int(layout.LayerM1),
		"xlo": mx, "ylo": my, "xhi": mx + int64(synth.MinWidthM1/2), "yhi": my + 120,
	}}
	status, body, _ := postJSON(t, ts.URL+"/v1/sessions/u/edit", map[string]any{"edits": edits})
	if status != http.StatusOK {
		t.Fatalf("edit: %d: %s", status, body)
	}
	var editResp struct {
		Applied int `json:"applied"`
		Layers  []struct {
			Layer    int `json:"layer"`
			Inserted int `json:"inserted"`
			Rects    int `json:"dirty_rects"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(body, &editResp); err != nil {
		t.Fatalf("bad edit response: %v: %s", err, body)
	}
	if editResp.Applied != 1 || len(editResp.Layers) != 1 ||
		editResp.Layers[0].Inserted != 1 || editResp.Layers[0].Rects != 1 {
		t.Fatalf("edit response = %+v", editResp)
	}

	// The delta check's body must be byte-identical to a cold batch check of
	// the edited design; the delta metadata rides in headers.
	status, body, hdr := checkOnce(t, ts.URL, "u", map[string]any{"delta": true})
	if status != http.StatusOK {
		t.Fatalf("delta check: %d: %s", status, body)
	}
	if hdr.Get("X-Odrc-Delta-Planned") != "true" {
		t.Fatalf("delta not planned: fallback=%q", hdr.Get("X-Odrc-Delta-Fallback"))
	}
	if hdr.Get("X-Odrc-Delta-Rules-Skipped") == "0" {
		t.Fatal("no rules skipped on a single-layer edit")
	}
	if _, err := lo.ApplyEdits([]layout.Edit{{
		Op: layout.OpInsertRect, Layer: layout.LayerM1,
		Rect: geom.Rect{XLo: mx, YLo: my, XHi: mx + synth.MinWidthM1/2, YHi: my + 120},
	}}); err != nil {
		t.Fatal(err)
	}
	if want := batchCanon(t, lo, synth.Deck(), core.Parallel, nil); string(body) != want {
		t.Fatal("delta check body differs from a cold check of the edited design")
	}

	var stats struct {
		ID    string `json:"id"`
		Stats struct {
			FullChecks    int64 `json:"full_checks"`
			DeltaChecks   int64 `json:"delta_checks"`
			DeltaPlanned  int64 `json:"delta_planned"`
			ResidentBytes int64 `json:"resident_bytes"`
			RulesReplayed int64 `json:"rules_replayed"`
			RulesExecuted int64 `json:"rules_executed"`
			ResultBytes   int64 `json:"result_bytes"`
		} `json:"stats"`
	}
	if status := getJSON(t, ts.URL+"/v1/sessions/u/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	// The warm-up executed the deck; the delta check executed the four M1
	// rules and the V1-in-M1 enclosure restricted, and skipped the rest.
	n := int64(len(synth.Deck()))
	if stats.ID != "u" || stats.Stats.FullChecks != 1 || stats.Stats.DeltaChecks != 1 ||
		stats.Stats.DeltaPlanned != 1 || stats.Stats.ResidentBytes == 0 ||
		stats.Stats.RulesExecuted != n+5 || stats.Stats.RulesReplayed != 0 || stats.Stats.ResultBytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// A plain check now replays every rule but the five whose record the
	// restricted runs refreshed without a device log — same bytes.
	if status, again, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusOK || string(again) != string(body) {
		t.Fatalf("plain check after the delta check: %d, same bytes %v", status, string(again) == string(body))
	}
	if status := getJSON(t, ts.URL+"/v1/sessions/u/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if stats.Stats.RulesExecuted != n+5+5 || stats.Stats.RulesReplayed != n-5 {
		t.Fatalf("stats after the plain check = %+v", stats)
	}

	// Validation surface: unknown op is a 400, missing session a 404.
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions/u/edit",
		map[string]any{"edits": []map[string]any{{"op": "bulldoze", "layer": 1}}})
	if status != http.StatusBadRequest {
		t.Fatalf("bad op: %d", status)
	}
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions/u/edit", map[string]any{"edits": edits[:0]})
	if status != http.StatusBadRequest {
		t.Fatalf("empty edit list: %d", status)
	}
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions/nope/edit", map[string]any{"edits": edits})
	if status != http.StatusNotFound {
		t.Fatalf("missing session edit: %d", status)
	}
	if status := getJSON(t, ts.URL+"/v1/sessions/nope/stats", nil); status != http.StatusNotFound {
		t.Fatalf("missing session stats: %d", status)
	}
}
