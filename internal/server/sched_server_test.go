package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/synth"
)

// Fair-scheduling service surface plus the check-path correctness fixes:
// duplicate rule IDs reject, Retry-After tracks load, response dedup never
// mutates session-resident delta state, and one tenant's report bytes are
// invariant under co-tenant load.

// TestCheckDuplicateRuleIDs: a rules list naming the same rule twice is a
// 400, not a deck that runs the rule twice.
func TestCheckDuplicateRuleIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "dup", "uart", "par")
	id := synth.Deck()[0].ID
	status, body, _ := checkOnce(t, ts.URL, "dup",
		map[string]any{"rules": []string{id, id}})
	if status != http.StatusBadRequest {
		t.Fatalf("duplicate rules: status %d: %s", status, body)
	}
	// The same single rule, named once, still runs.
	if status, body, _ := checkOnce(t, ts.URL, "dup",
		map[string]any{"rules": []string{id}}); status != http.StatusOK {
		t.Fatalf("single rule: status %d: %s", status, body)
	}
}

// TestRetryAfterDerivedFromLoad: a 429's Retry-After starts at the static
// 1s floor and grows once the service-time estimate says the admitted
// backlog needs longer to drain.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 2})
	createSession(t, ts.URL, "ra", "uart", "par")

	// Saturate admission without running anything: the test owns both
	// in-flight slots, so every check below is an immediate 429.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	defer func() { <-srv.sem; <-srv.sem }()

	status, body, hdr := checkOnce(t, ts.URL, "ra", map[string]any{})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated check: status %d: %s", status, body)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After with no history = %q, want 1", got)
	}

	// Sustained saturation: checks have been taking ~5s each, and two are
	// admitted, so the honest hint is several seconds, not 1.
	for i := 0; i < 3; i++ {
		srv.svc.note(5 * time.Second)
	}
	status, _, hdr = checkOnce(t, ts.URL, "ra", map[string]any{})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated check: status %d", status)
	}
	after, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil {
		t.Fatalf("bad Retry-After %q: %v", hdr.Get("Retry-After"), err)
	}
	if after <= 1 {
		t.Fatalf("Retry-After under sustained load = %d, want > 1", after)
	}
	if after > maxRetryAfter {
		t.Fatalf("Retry-After = %d exceeds cap %d", after, maxRetryAfter)
	}
}

// TestRetryAfterWhileChecksComplete: 429s read the service-time estimate
// while completing checks on another session fold into it, from requests
// running side by side — the pairing under which the race detector sees
// whether svcClock's lock covers both sides.
func TestRetryAfterWhileChecksComplete(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxQueuePerSession: 1})
	createSession(t, ts.URL, "run", "uart", "seq")
	createSession(t, ts.URL, "full", "uart", "seq")
	// The test holds the only queue slot of "full", so each of its checks
	// is an immediate 429.
	h := srv.reg.lookup("full")
	if !h.admit(1) {
		t.Fatal("could not take the queue slot of an idle session")
	}
	defer h.unadmit()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var shed int
	var shedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/sessions/full/check", "application/json", strings.NewReader("{}"))
			if err != nil {
				shedErr = err
				return
			}
			resp.Body.Close()
			after, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if resp.StatusCode != http.StatusTooManyRequests || err != nil || after < 1 || after > maxRetryAfter {
				shedErr = fmt.Errorf("status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
				return
			}
			shed++
		}
	}()
	for i := 0; i < 30; i++ {
		if status, body, _ := checkOnce(t, ts.URL, "run", map[string]any{}); status != http.StatusOK {
			close(stop)
			wg.Wait()
			t.Fatalf("check %d: status %d: %s", i, status, body)
		}
	}
	close(stop)
	wg.Wait()
	if shedErr != nil {
		t.Fatalf("queue-full check: %v", shedErr)
	}
	if shed == 0 {
		t.Fatal("no 429 was served while checks completed")
	}
	if srv.svc.estimate() <= 0 {
		t.Fatal("completed checks left no service-time estimate")
	}
}

// TestDeltaCheckDedupRepeatable: response dedup must shape the wire bytes
// only — never the session's resident baseline — so two dedup'd delta
// checks of the same edited design are byte-identical to each other and to
// a cold batch check of that design.
func TestDeltaCheckDedupRepeatable(t *testing.T) {
	lo, _, err := synth.Load("uart", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m := lo.Top.LayerMBR(layout.LayerM1)
	mx, my := (m.XLo+m.XHi)/2, (m.YLo+m.YHi)/2

	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, "dd", "uart", "par")
	if status, body, _ := checkOnce(t, ts.URL, "dd", map[string]any{}); status != http.StatusOK {
		t.Fatalf("warmup check: %d: %s", status, body)
	}
	edits := []map[string]any{{
		"op": "insert_rect", "layer": int(layout.LayerM1),
		"xlo": mx, "ylo": my, "xhi": mx + int64(synth.MinWidthM1/2), "yhi": my + 120,
	}}
	if status, body, _ := postJSON(t, ts.URL+"/v1/sessions/dd/edit",
		map[string]any{"edits": edits}); status != http.StatusOK {
		t.Fatalf("edit: %d: %s", status, body)
	}

	status, first, _ := checkOnce(t, ts.URL, "dd", map[string]any{"delta": true, "dedup": true})
	if status != http.StatusOK {
		t.Fatalf("first delta check: %d: %s", status, first)
	}
	status, second, _ := checkOnce(t, ts.URL, "dd", map[string]any{"delta": true, "dedup": true})
	if status != http.StatusOK {
		t.Fatalf("second delta check: %d: %s", status, second)
	}
	if string(first) != string(second) {
		t.Fatal("repeated dedup'd delta checks differ: dedup mutated session state")
	}
	if _, err := lo.ApplyEdits([]layout.Edit{{
		Op: layout.OpInsertRect, Layer: layout.LayerM1,
		Rect: geom.Rect{XLo: mx, YLo: my, XHi: mx + synth.MinWidthM1/2, YHi: my + 120},
	}}); err != nil {
		t.Fatal(err)
	}
	if want := batchCanon(t, lo, synth.Deck(), core.Parallel, nil); string(first) != want {
		t.Fatal("dedup'd delta check differs from a cold check of the edited design")
	}
}

// TestCheckBytesInvariantUnderCoTenantLoad: fairness must change only
// latency, never results — a tenant's canonical report bytes are identical
// with and without a heavy co-tenant hammering the shared workers.
func TestCheckBytesInvariantUnderCoTenantLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, id := range []string{"light", "heavy"} {
		// seq mode with explicit workers: host-side fan-outs are the ones the
		// scheduler routes, and they must actually contend on its shared
		// workers, single-core hosts included.
		status, body, _ := postJSON(t, ts.URL+"/v1/sessions",
			map[string]any{"id": id, "design": "uart", "scale": 0.2, "mode": "seq", "workers": 4})
		if status != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", id, status, body)
		}
	}

	status, solo, _ := checkOnce(t, ts.URL, "light", map[string]any{})
	if status != http.StatusOK {
		t.Fatalf("solo check: %d: %s", status, solo)
	}

	// A session answers a repeated identical check from its rule records;
	// dropping its resident state first makes every check below real work.
	executed := func(id string) (int, []byte) {
		if status, body, _ := postJSON(t, ts.URL+"/v1/sessions/"+id+"/invalidate", map[string]any{}); status != http.StatusNoContent {
			t.Errorf("invalidate %s: %d: %s", id, status, body)
		}
		status, body, _ := checkOnce(t, ts.URL, id, map[string]any{})
		return status, body
	}

	// Heavy co-tenant: two loops of back-to-back full-deck checks.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				executed("heavy")
			}
		}()
	}
	for i := 0; i < 3; i++ {
		status, body := executed("light")
		if status != http.StatusOK {
			t.Fatalf("check %d under load: %d: %s", i, status, body)
		}
		if string(body) != string(solo) {
			t.Fatalf("check %d under co-tenant load differs from solo bytes", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDebugSchedSnapshot: sessions surface their tenant and resolved
// weight, and /debug/sched reports the per-tenant dispatch accounting.
func TestDebugSchedSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TenantWeights: map[string]int{"acme": 3},
	})
	// seq mode (host-side fan-outs are what the scheduler routes; par mode
	// runs rules as device kernels) with explicit workers, so the check takes
	// the multi-worker path even on a single-core host.
	status, body, _ := postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"id": "s1", "tenant": "acme", "design": "uart", "scale": 0.2,
			"mode": "seq", "workers": 4})
	if status != http.StatusCreated {
		t.Fatalf("create: %d: %s", status, body)
	}
	if status, body, _ := checkOnce(t, ts.URL, "s1", map[string]any{}); status != http.StatusOK {
		t.Fatalf("check: %d: %s", status, body)
	}

	var stats struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
		Weight int    `json:"weight"`
	}
	if status := getJSON(t, ts.URL+"/v1/sessions/s1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if stats.Tenant != "acme" || stats.Weight != 3 {
		t.Fatalf("stats tenant/weight = %q/%d, want acme/3", stats.Tenant, stats.Weight)
	}

	var snap struct {
		Policy  string `json:"policy"`
		Workers int    `json:"workers"`
		Tenants []struct {
			Tenant     string `json:"tenant"`
			Weight     int    `json:"weight"`
			Fanouts    uint64 `json:"fanouts"`
			SelfServed uint64 `json:"self_served_chunks"`
			Dispatched uint64 `json:"dispatched_chunks"`
		} `json:"tenants"`
	}
	if status := getJSON(t, ts.URL+"/debug/sched", &snap); status != http.StatusOK {
		t.Fatalf("/debug/sched: %d", status)
	}
	if snap.Policy != "fair" || snap.Workers < 1 {
		t.Fatalf("snapshot policy/workers = %q/%d", snap.Policy, snap.Workers)
	}
	var acme *struct {
		Tenant     string `json:"tenant"`
		Weight     int    `json:"weight"`
		Fanouts    uint64 `json:"fanouts"`
		SelfServed uint64 `json:"self_served_chunks"`
		Dispatched uint64 `json:"dispatched_chunks"`
	}
	for i := range snap.Tenants {
		if snap.Tenants[i].Tenant == "acme" {
			acme = &snap.Tenants[i]
		}
	}
	if acme == nil {
		t.Fatalf("tenant acme missing from snapshot: %+v", snap.Tenants)
	}
	if acme.Weight != 3 {
		t.Fatalf("snapshot weight = %d, want 3", acme.Weight)
	}
	if acme.Fanouts == 0 {
		t.Fatal("no fan-outs recorded for acme after a full-deck check")
	}
	if acme.SelfServed+acme.Dispatched == 0 {
		t.Fatal("no chunks executed through the scheduler for acme")
	}
}
