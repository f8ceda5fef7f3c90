package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opendrc/internal/gdsii"
	"opendrc/internal/synth"
	"opendrc/internal/trace"
)

// TestLoadGDSRecordsIngestSpans pins the ledger's first two stages on the
// run timeline: LoadGDS times the read and the build on the recorder's
// clock and records one host phase span each, carrying the file size and
// the structure and cell counts — the same figures it returns.
func TestLoadGDSRecordsIngestSpans(t *testing.T) {
	p, err := synth.Design("uart")
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := p.Scaled(0.2).Generate()
	path := filepath.Join(t.TempDir(), "uart.gds")
	if err := gdsii.WriteFile(path, lib); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var tick time.Duration
	rec := trace.NewWithClock(func() time.Duration { tick += time.Millisecond; return tick })
	lo, in, err := LoadGDS(path, rec)
	if err != nil {
		t.Fatal(err)
	}
	want := Ingest{Read: time.Millisecond, Build: time.Millisecond, Bytes: st.Size(), Structures: len(lib.Structures), Cells: len(lo.Cells)}
	if in != want {
		t.Fatalf("ingest = %+v, want %+v", in, want)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]any{}
	for _, ev := range file.TraceEvents {
		if ev.Cat == "phase" {
			got[ev.Name] = ev.Args
		}
	}
	if r := got["ingest:read"]; r["bytes"] != float64(st.Size()) || r["structures"] != float64(len(lib.Structures)) {
		t.Errorf("ingest:read span args = %v", r)
	}
	if b := got["ingest:build"]; b["cells"] != float64(len(lo.Cells)) {
		t.Errorf("ingest:build span args = %v", b)
	}
	if _, _, err := LoadGDS(filepath.Join(t.TempDir(), "missing.gds"), nil); err == nil {
		t.Error("a missing file loaded")
	}
}
