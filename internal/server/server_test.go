package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/faults"
	"opendrc/internal/gdsii"
	"opendrc/internal/infra"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// The service contract under test: odrcd answers check requests with the
// engine's canonical report bytes — indistinguishable from a batch run of
// the same design and deck — while admission control, deadlines, and the
// watchdog keep overload and hangs request-scoped. Every test drives the
// real HTTP surface through httptest.

// newTestServer builds a server plus its HTTP front end; cleanup drains and
// closes every session.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(context.Background(), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
		srv.CloseAll(context.Background())
	})
	return srv, ts
}

// postJSON posts a JSON body and returns status, response bytes, and
// headers.
func postJSON(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// createSession loads a synth design (at the test-standard 0.2 scale) into
// the server and fails the test on anything but 201.
func createSession(t *testing.T, base, id, design, mode string) {
	t.Helper()
	status, body, _ := postJSON(t, base+"/v1/sessions",
		map[string]any{"id": id, "design": design, "scale": 0.2, "mode": mode})
	if status != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", id, status, body)
	}
}

// checkOnce posts one check request.
func checkOnce(t *testing.T, base, id string, body any) (int, []byte, http.Header) {
	t.Helper()
	return postJSON(t, base+"/v1/sessions/"+id+"/check", body)
}

// batchCanon is the ground truth: a fresh batch engine on the same layout,
// deck, and injector, deduped like the server's default, in canonical form.
func batchCanon(t *testing.T, lo *layout.Layout, deck rules.Deck, mode core.Mode, inj *faults.Injector) string {
	t.Helper()
	e := core.New(core.Options{Mode: mode, Faults: inj})
	if err := e.AddRules(deck...); err != nil {
		t.Fatal(err)
	}
	rep, err := e.CheckContext(context.Background(), lo)
	if err != nil {
		t.Fatal(err)
	}
	rep.Violations = core.DedupViolations(rep.Violations)
	var buf bytes.Buffer
	if err := rep.WriteCanonicalJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// waitInflight polls /healthz until the admitted-check gauge reaches want.
func waitInflight(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Inflight int `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Inflight == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("inflight stuck at %d, want %d", h.Inflight, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestServerCheckParity is the headline contract: for every synth design in
// both engine modes, the daemon's cold check, warm check, and warm
// single-rule check return byte-for-byte the canonical report of a batch
// engine run.
func TestServerCheckParity(t *testing.T) {
	deck := synth.Deck()
	single := deck[2]
	_, ts := newTestServer(t, Config{})
	for _, design := range []string{"aes", "ethmac", "ibex", "jpeg", "sha3", "uart"} {
		lo, _, err := synth.Load(design, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		for _, mode := range []string{"seq", "par"} {
			coreMode := core.Sequential
			if mode == "par" {
				coreMode = core.Parallel
			}
			id := design + "-" + mode
			status, body, _ := postJSON(t, ts.URL+"/v1/sessions",
				map[string]any{"id": id, "design": design, "scale": 0.2, "mode": mode})
			if status != http.StatusCreated {
				t.Fatalf("%s: create: %d: %s", id, status, body)
			}
			want := batchCanon(t, lo, deck, coreMode, nil)
			for run, label := range []string{"cold", "warm"} {
				status, body, hdr := checkOnce(t, ts.URL, id, map[string]any{})
				if status != http.StatusOK {
					t.Fatalf("%s %s: check: %d: %s", id, label, status, body)
				}
				if string(body) != want {
					t.Fatalf("%s %s: report differs from batch:\n%s\nvs\n%s", id, label, body, want)
				}
				if got := hdr.Get("X-Odrc-Request"); got != fmt.Sprintf("%s/check#%d", id, run) {
					t.Fatalf("%s %s: X-Odrc-Request = %q", id, label, got)
				}
				if got := hdr.Get("X-Odrc-Degraded"); got != "false" {
					t.Fatalf("%s %s: X-Odrc-Degraded = %q", id, label, got)
				}
			}
			wantOne := batchCanon(t, lo, rules.Deck{single}, coreMode, nil)
			status, body, _ = checkOnce(t, ts.URL, id,
				map[string]any{"rules": []string{single.ID}})
			if status != http.StatusOK {
				t.Fatalf("%s: single-rule check: %d: %s", id, status, body)
			}
			if string(body) != wantOne {
				t.Fatalf("%s: single-rule report differs from single-rule batch", id)
			}
		}
	}
}

// TestServerCreateLifecycle covers the session CRUD contract: single-flight
// idempotent creation, conflict on reuse, listing, deletion, and a failed
// load leaving the id free for a successful retry.
func TestServerCreateLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, body, _ := postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "u", "design": "uart", "scale": 0.2})
	if status != http.StatusCreated {
		t.Fatalf("create: %d: %s", status, body)
	}
	// Same id, same design: idempotent 200.
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "u", "design": "uart", "scale": 0.2})
	if status != http.StatusOK {
		t.Fatalf("idempotent create: %d", status)
	}
	// Same id, different design: 409.
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "u", "design": "sha3", "scale": 0.2})
	if status != http.StatusConflict {
		t.Fatalf("conflicting create: %d, want 409", status)
	}
	// Malformed requests.
	for _, bad := range []map[string]any{
		{"id": "x"}, // neither design nor gds
		{"id": "x", "design": "uart", "gds": "a.gds"},       // both
		{"id": "x", "design": "uart", "mode": "warp-drive"}, // unknown mode
	} {
		if status, _, _ := postJSON(t, ts.URL+"/v1/sessions", bad); status != http.StatusBadRequest {
			t.Fatalf("bad create %v: %d, want 400", bad, status)
		}
	}
	// A failed load must not squat on the id.
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "retry", "gds": "/nonexistent/never.gds"})
	if status != http.StatusBadGateway {
		t.Fatalf("load of missing GDS: %d, want 502", status)
	}
	status, _, _ = postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "retry", "design": "uart", "scale": 0.2})
	if status != http.StatusCreated {
		t.Fatalf("retry after failed load: %d, want 201", status)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Sessions) != 2 || list.Sessions[0].ID != "retry" || list.Sessions[1].ID != "u" {
		t.Fatalf("listing = %+v, want [retry u]", list.Sessions)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/u", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", dresp.StatusCode)
	}
	if status, _, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusNotFound {
		t.Fatalf("check after delete: %d, want 404", status)
	}
	// Unknown rule id in a check request.
	status, _, _ = checkOnce(t, ts.URL, "retry", map[string]any{"rules": []string{"no-such-rule"}})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown-rule check: %d, want 400", status)
	}
}

// TestServerOverload pins admission control: with one admission slot held
// by a parked check, the next request sheds immediately with 429 and
// Retry-After, and capacity returns once the parked check finishes.
func TestServerOverload(t *testing.T) {
	inj := faults.New(1, faults.Injection{
		Site: faults.SiteRequest, Key: "u/check#0", Mode: faults.Stall, Stall: 30 * time.Second,
	})
	_, ts := newTestServer(t, Config{
		MaxInFlight:        1,
		MaxQueuePerSession: 1,
		DefaultTimeout:     time.Second,
		Faults:             inj,
	})
	createSession(t, ts.URL, "u", "uart", "par")

	first := make(chan int, 1)
	go func() {
		status, _, _ := checkOnce(t, ts.URL, "u", map[string]any{})
		first <- status
	}()
	waitInflight(t, ts.URL, 1)

	status, _, hdr := checkOnce(t, ts.URL, "u", map[string]any{})
	if status != http.StatusTooManyRequests {
		t.Fatalf("check at capacity: %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The parked request's deadline cancels the stall; the slot frees.
	if status := <-first; status != http.StatusGatewayTimeout {
		t.Fatalf("parked check: %d, want 504 after its deadline", status)
	}
	waitInflight(t, ts.URL, 0)
	if status, body, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusOK {
		t.Fatalf("check after load shed: %d: %s", status, body)
	}
}

// TestServerDisconnectMatchesTimeout is the cancellation-determinism
// contract over HTTP: a client disconnect mid-check and a server-side
// deadline drive the engine through the identical cooperative-cancel path,
// and in both cases the session afterwards serves the untouched rules with
// bytes identical to a batch engine under the same injector.
func TestServerDisconnectMatchesTimeout(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	stalled := deck[1]
	rest := append(append(rules.Deck{}, deck[0]), deck[2:]...)
	restIDs := make([]string, len(rest))
	for i, r := range rest {
		restIDs[i] = r.ID
	}
	inj := faults.New(1, faults.Injection{
		Site: faults.SiteRule, Key: stalled.ID, Mode: faults.Stall, Stall: time.Hour,
	})
	_, ts := newTestServer(t, Config{Faults: inj, WatchdogGrace: 10 * time.Second})
	createSession(t, ts.URL, "u", "uart", "par")
	want := batchCanon(t, lo, rest, core.Parallel, inj)

	// Client disconnect: cancel the request context while the check is
	// parked inside the stalled rule.
	cctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(cctx, http.MethodPost,
		ts.URL+"/v1/sessions/u/check", strings.NewReader("{}"))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("disconnected check answered %d", resp.StatusCode)
		}
		errc <- err
	}()
	waitInflight(t, ts.URL, 1)
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("disconnected request = %v, want context.Canceled transport error", err)
	}
	waitInflight(t, ts.URL, 0) // the engine observed the disconnect and returned

	status, body, _ := checkOnce(t, ts.URL, "u", map[string]any{"rules": restIDs})
	if status != http.StatusOK {
		t.Fatalf("check after disconnect: %d: %s", status, body)
	}
	if string(body) != want {
		t.Fatal("session state after client disconnect differs from batch")
	}

	// Server-side deadline on the same session: same engine path, observed
	// as a 504.
	status, body, _ = checkOnce(t, ts.URL, "u", map[string]any{"timeout_ms": 100})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline check: %d: %s", status, body)
	}
	waitInflight(t, ts.URL, 0)
	status, body, _ = checkOnce(t, ts.URL, "u", map[string]any{"rules": restIDs})
	if status != http.StatusOK || string(body) != want {
		t.Fatalf("session state after timeout differs from batch (status %d)", status)
	}
}

// TestServerWatchdogAbandons pins the non-cooperative hang: a check that
// ignores cancellation is answered 504 after deadline+grace, its admission
// slot stays held until the runaway actually returns, and the session then
// serves clean checks again with no goroutine left behind.
func TestServerWatchdogAbandons(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	deck := synth.Deck()
	inj := faults.New(1, faults.Injection{
		Site: faults.SiteRequest, Key: "u/check#0", Mode: faults.Stall,
		Stall: 1500 * time.Millisecond, IgnoreCancel: true,
	})
	_, ts := newTestServer(t, Config{Faults: inj, WatchdogGrace: 100 * time.Millisecond})
	createSession(t, ts.URL, "u", "uart", "par")
	baseline := runtime.NumGoroutine()

	status, body, _ := checkOnce(t, ts.URL, "u", map[string]any{"timeout_ms": 100})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("wedged check: %d: %s", status, body)
	}
	if !bytes.Contains(body, []byte("abandoned")) {
		t.Fatalf("wedged check error does not mention abandonment: %s", body)
	}
	// The abandoned child still holds its slot until the stall elapses.
	waitInflight(t, ts.URL, 0)
	status, body, _ = checkOnce(t, ts.URL, "u", map[string]any{})
	if status != http.StatusOK {
		t.Fatalf("check after watchdog: %d: %s", status, body)
	}
	if want := batchCanon(t, lo, deck, core.Parallel, inj); string(body) != want {
		t.Fatal("report after watchdog abandonment differs from batch")
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the process goroutine count drops back to (or
// below) the baseline plus scheduler slack. Idle keep-alive connections
// (client loops plus the httptest server's conn handler) are torn down each
// round so only genuine service leaks can keep the count elevated.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// waitUnreferenced polls until no request holds the session handle.
func waitUnreferenced(t *testing.T, h *sessionHandle) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		h.mu.Lock()
		refs := h.refs
		h.mu.Unlock()
		if refs == 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("session %s still holds %d references", h.id, refs)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServerDrain covers graceful shutdown: draining rejects new sessions
// and checks with 503 while the registry closes everything deterministically.
func TestServerDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "u", "uart", "par")
	if status, body, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusOK {
		t.Fatalf("pre-drain check: %d: %s", status, body)
	}
	srv.Drain()
	if status, _, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain check: %d, want 503", status)
	}
	status, _, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"id": "v", "design": "sha3"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain create: %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", h.Status)
	}
	// The check child sends its outcome before it releases its session
	// reference, so the reply can arrive while the session is still held:
	// wait for the release, or CloseAll rightly defers the close to it.
	waitUnreferenced(t, srv.reg.lookup("u"))
	if n := srv.CloseAll(context.Background()); n != 1 {
		t.Fatalf("CloseAll closed %d sessions, want 1", n)
	}
	if srv.reg.count() != 0 {
		t.Fatalf("%d sessions survive CloseAll", srv.reg.count())
	}
}

// TestServerInvalidate drops a session's resident geometry over HTTP and
// demands the next check still matches batch.
func TestServerInvalidate(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "u", "uart", "par")
	want := batchCanon(t, lo, synth.Deck(), core.Parallel, nil)
	if status, body, _ := checkOnce(t, ts.URL, "u", map[string]any{}); status != http.StatusOK || string(body) != want {
		t.Fatalf("warmup check: %d", status)
	}
	status, body, _ := postJSON(t, ts.URL+"/v1/sessions/u/invalidate", map[string]any{})
	if status != http.StatusNoContent {
		t.Fatalf("invalidate: %d: %s", status, body)
	}
	status, body, _ = checkOnce(t, ts.URL, "u", map[string]any{})
	if status != http.StatusOK || string(body) != want {
		t.Fatalf("post-invalidate check differs (status %d)", status)
	}
}

// TestServerEmptyDeck: a parallel session created with a deck text that
// holds only a comment answers a check with the empty batch report.
func TestServerEmptyDeck(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	status, body, _ := postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "e", "design": "uart", "scale": 0.2, "mode": "par", "deck": "# no rules\n"})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	status, body, _ = checkOnce(t, ts.URL, "e", map[string]any{})
	if status != http.StatusOK || string(body) != batchCanon(t, lo, nil, core.Parallel, nil) {
		t.Fatalf("empty-deck check: status %d: %s", status, body)
	}
}

// syncBuffer is a bytes.Buffer safe to log into from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSessionLoadLogDecomposes pins the session-load log line's ingest
// fields: a session created from a GDSII file reports where its load went
// under the names the batch CLI's ingest spans use, so server.create_ms
// decomposes from the log alone.
func TestSessionLoadLogDecomposes(t *testing.T) {
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
	var logs syncBuffer
	_, ts := newTestServer(t, Config{Logger: infra.NewLogger(&logs, infra.LevelInfo)})
	if status, body, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"id": "g", "gds": path, "mode": "seq"}); status != http.StatusCreated {
		t.Fatalf("create from GDS: %d %s", status, body)
	}
	line := logs.String()
	for _, want := range []string{"session g loaded", "read_ms=", "build_ms=", fmt.Sprintf("gds_bytes=%d", st.Size())} {
		if !strings.Contains(line, want) {
			t.Fatalf("session-load log line lacks %q:\n%s", want, line)
		}
	}
}
