package trace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"opendrc/internal/trace"
)

// decodeEvents parses an exported file back into raw event maps.
func decodeEvents(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("exported file is not valid JSON: %v", err)
	}
	return file.TraceEvents
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *trace.Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if r.Clock() != nil {
		t.Error("nil recorder returned a clock")
	}
	if r.Now() != 0 {
		t.Error("nil recorder Now != 0")
	}
	// Every mutator must be callable on nil without panicking.
	r.Span(trace.TrackPhases, "", "p", "phase", 0, time.Millisecond)
	r.Instant(trace.TrackGeocache, "", "e", "geocache")
	r.InstantAt(trace.TrackGeocache, "", "e", "geocache", time.Millisecond)
	r.FlowAt(trace.TrackDevice, "a", "b", "dep", "dep", 0, 0)
	r.SetMeta("k", "v")
	stop := r.Begin(trace.TrackRules, "", "r", "rule")
	stop()
	if r.Len() != 0 {
		t.Errorf("nil recorder Len = %d, want 0", r.Len())
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("nil recorder WriteJSON returned no error")
	}
}

func TestBeginStopIdempotent(t *testing.T) {
	var now time.Duration
	r := trace.NewWithClock(func() time.Duration { return now })
	stop := r.Begin(trace.TrackRules, "", "M1.W.1", "rule")
	now = 5 * time.Millisecond
	stop(trace.Arg{Key: "status", Val: "ok"})
	now = 9 * time.Millisecond
	stop(trace.Arg{Key: "status", Val: "late"}) // must not record a second span
	if r.Len() != 1 {
		t.Fatalf("Len = %d after double stop, want 1", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ev := range decodeEvents(t, buf.Bytes()) {
		if ev["ph"] != "X" {
			continue
		}
		if d := ev["dur"].(float64); d != 5000 {
			t.Errorf("span dur = %vus, want 5000 (first stop wins)", d)
		}
		args := ev["args"].(map[string]any)
		if args["status"] != "ok" {
			t.Errorf("span args = %v, want the first stop's args", args)
		}
	}
}

// TestCanonicalExportOrder records the same content in two different
// interleavings and requires byte-identical exports: the canonical sort may
// depend on content only.
func TestCanonicalExportOrder(t *testing.T) {
	fixed := func() time.Duration { return 0 }
	type rec struct {
		name  string
		start time.Duration
	}
	content := []rec{
		{"M1.W.1", 1 * time.Millisecond},
		{"M1.S.1", 2 * time.Millisecond},
		{"M2.W.1", 3 * time.Millisecond},
	}
	export := func(order []int) []byte {
		r := trace.NewWithClock(fixed)
		r.SetMeta("mode", "test")
		for _, i := range order {
			c := content[i]
			r.Span(trace.TrackRules, "", c.name, "rule", c.start, c.start+time.Millisecond)
			r.Instant(trace.TrackGeocache, "", "flatten:layer#1", "geocache")
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := export([]int{0, 1, 2})
	b := export([]int{2, 0, 1})
	if !bytes.Equal(a, b) {
		t.Error("exports differ across recording orders")
	}
}

// TestPoolLanePacking checks the deterministic interval packing: two
// overlapping task spans land on different lanes, and a later span reuses
// the first lane once it is free.
func TestPoolLanePacking(t *testing.T) {
	r := trace.NewWithClock(func() time.Duration { return 0 })
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	r.Span(trace.TrackPool, "", "row#0", "pool", ms(0), ms(10))
	r.Span(trace.TrackPool, "", "row#1", "pool", ms(2), ms(6)) // overlaps row#0
	r.Span(trace.TrackPool, "", "row#2", "pool", ms(12), ms(14))
	// The host process is required by Validate; give it one span.
	r.Span(trace.TrackPhases, "", "phase", "phase", ms(0), ms(14))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]float64{}
	for _, ev := range decodeEvents(t, buf.Bytes()) {
		if ev["ph"] == "X" && ev["cat"] == "pool" {
			lanes[ev["name"].(string)] = ev["tid"].(float64)
		}
	}
	if lanes["row#0"] != 1 {
		t.Errorf("row#0 lane = %v, want 1", lanes["row#0"])
	}
	if lanes["row#1"] != 2 {
		t.Errorf("row#1 lane = %v, want 2 (overlaps row#0)", lanes["row#1"])
	}
	if lanes["row#2"] != 1 {
		t.Errorf("row#2 lane = %v, want 1 (lane free again)", lanes["row#2"])
	}
	if _, err := trace.Validate(&buf); err != nil {
		t.Errorf("Validate rejected the export: %v", err)
	}
}

func TestDeviceStreamTracksAndFlows(t *testing.T) {
	r := trace.NewWithClock(func() time.Duration { return 0 })
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	r.Span(trace.TrackPhases, "", "phase", "phase", ms(0), ms(1))
	r.Span(trace.TrackDevice, "host", "pack", "host-modeled", ms(0), ms(2))
	r.Span(trace.TrackDevice, "s1", "kernel", "kernel", ms(2), ms(5))
	r.Span(trace.TrackDevice, "s0", "copy", "copy", ms(2), ms(3))
	r.FlowAt(trace.TrackDevice, "s0", "s1", "event-wait", "dep", ms(3), ms(3))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	tids := map[string]float64{}
	var flowPhases []string
	for _, ev := range decodeEvents(t, b) {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				tids[args["name"].(string)] = ev["tid"].(float64)
			}
		case "s", "f":
			flowPhases = append(flowPhases, ev["ph"].(string))
		}
	}
	// "host (modeled)" pinned to tid 1; streams name-sorted after it.
	if tids["host (modeled)"] != 1 || tids["stream s0"] != 2 || tids["stream s1"] != 3 {
		t.Errorf("device tids = %v, want host=1 s0=2 s1=3", tids)
	}
	if len(flowPhases) != 2 {
		t.Errorf("flow endpoints = %v, want one s and one f", flowPhases)
	}
	info, err := trace.Validate(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if info.Flows != 1 {
		t.Errorf("Validate Flows = %d, want 1", info.Flows)
	}
}

func TestSetMetaOverwrites(t *testing.T) {
	r := trace.NewWithClock(func() time.Duration { return 0 })
	r.Span(trace.TrackPhases, "", "p", "phase", 0, time.Millisecond)
	r.SetMeta("mode", "seq")
	r.SetMeta("mode", "par")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if file.OtherData["mode"] != "par" {
		t.Errorf("otherData mode = %v, want par", file.OtherData["mode"])
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := trace.FromContext(ctx); got != nil {
		t.Errorf("FromContext(empty) = %v", got)
	}
	if trace.WithRecorder(ctx, nil) != ctx {
		t.Error("WithRecorder(nil) did not return ctx unchanged")
	}
	if trace.WithTask(ctx, "row") != ctx {
		t.Error("WithTask without a recorder did not return ctx unchanged")
	}
	if got := trace.TaskLabel(ctx); got != "task" {
		t.Errorf("default TaskLabel = %q, want task", got)
	}
	r := trace.NewWithClock(func() time.Duration { return 0 })
	ctx = trace.WithRecorder(ctx, r)
	if trace.FromContext(ctx) != r {
		t.Error("FromContext did not return the carried recorder")
	}
	ctx = trace.WithTask(ctx, "row")
	if got := trace.TaskLabel(ctx); got != "row" {
		t.Errorf("TaskLabel = %q, want row", got)
	}
}

// TestRequestIDPlumbing covers the service layer's per-request identity: it
// rides the context and defaults to empty outside a request.
func TestRequestIDPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := trace.RequestID(ctx); got != "" {
		t.Errorf("RequestID(empty) = %q, want \"\"", got)
	}
	if trace.WithRequestID(ctx, "") != ctx {
		t.Error("WithRequestID(\"\") did not return ctx unchanged")
	}
	ctx = trace.WithRequestID(ctx, "uart/check#7")
	if got := trace.RequestID(ctx); got != "uart/check#7" {
		t.Errorf("RequestID = %q, want uart/check#7", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"not json", "{", "not valid JSON"},
		{"empty", `{"traceEvents":[]}`, "empty"},
		{"missing name", `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"dur":1}]}`, "missing name"},
		{"span without dur", `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1,"ts":0}]}`, "dur"},
		{"no host process", `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":1}]}`, "host"},
		{"unpaired flow", `{"traceEvents":[
			{"ph":"M","pid":1,"name":"process_name","args":{"name":"host"}},
			{"name":"w","ph":"s","id":"flow-0","pid":1,"tid":1,"ts":0}]}`, "flow"},
		{"unknown phase", `{"traceEvents":[{"name":"a","ph":"Z","pid":1,"tid":1,"ts":0}]}`, "unknown phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.Validate(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("Validate accepted a malformed file")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestConcurrentRecording exercises the recorder under -race: spans from
// many goroutines, one canonical export.
func TestConcurrentRecording(t *testing.T) {
	r := trace.NewWithClock(func() time.Duration { return 0 })
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				stop := r.Begin(trace.TrackPool, "", "task", "pool")
				stop()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if r.Len() != 8*50 {
		t.Errorf("Len = %d, want %d", r.Len(), 8*50)
	}
}
