// Package server is odrcd, the resident DRC service: an HTTP/JSON daemon
// that holds loaded designs open as sessions (the GDSII parse, hierarchy,
// geometry cache, and device-resident edge buffers outlive any single
// check) and serves concurrent full-deck and single-rule checks against
// them at warm-cache cost.
//
// The robustness layer is the point, not an afterthought:
//
//   - Admission control. A global bound caps admitted check requests;
//     within a session, checks run one at a time and queue FIFO (waiters
//     on the session lock wake in arrival order). Overload answers 429
//     with Retry-After instead of queueing unboundedly.
//   - Deadlines end to end. Every check runs under a per-request deadline
//     (request-supplied, clamped; server default otherwise) derived from
//     the request context, so a client disconnect cancels exactly like a
//     timeout does. The engine observes cancellation at rule boundaries;
//     a cancelled check returns no partial report.
//   - Degradation stays request-scoped. A rule that trips a session
//     budget, panics, or hits an injected fault degrades that report
//     (Report.Degraded, structured budget.Error in the body) — never the
//     session, never the process.
//   - A watchdog bounds the damage of a wedged check: if the deadline
//     passes and the check still hasn't returned within the grace window,
//     the request is answered 504 and the runaway is abandoned to finish
//     on its own (its admission slot and session reference are released
//     only when it actually returns, so accounting never lies).
//   - Graceful shutdown: draining rejects new work with 503 while
//     in-flight checks finish, then every session closes, returning its
//     device-resident buffers deterministically.
//
// Responses to /check are the engine's canonical report JSON
// (core.Report.WriteCanonicalJSON) — byte-identical to `odrc -canon` on
// the same design and deck — with timings and the request identity in
// X-Odrc-* headers, so service results diff cleanly against batch runs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/infra"
	"opendrc/internal/pool"
)

// Config tunes the service. The zero value is usable: every limit has a
// production default.
type Config struct {
	// MaxInFlight caps admitted check requests across all sessions
	// (running + queued-on-session). Beyond it: 429. Default 8.
	MaxInFlight int
	// MaxQueuePerSession caps checks admitted against one session (the one
	// running plus those queued behind it). Beyond it: 429. Default 4.
	MaxQueuePerSession int
	// DefaultTimeout applies when a check request names no timeout_ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines. Default 5m.
	MaxTimeout time.Duration
	// WatchdogGrace is how long past its deadline a check may run before
	// the watchdog abandons it and answers 504. Default 2s.
	WatchdogGrace time.Duration
	// SchedWorkers sizes the shared cross-tenant worker set of the fair
	// scheduler (pool.Scheduler) every admitted check's fan-outs route
	// through. <= 0 selects GOMAXPROCS.
	SchedWorkers int
	// TenantWeights gives named tenants a larger stride share of the shared
	// workers; a session's tenant defaults to its session id. Tenants
	// absent from the map get weight 1.
	TenantWeights map[string]int
	// Faults drives the chaos suite through the service seams
	// (faults.SiteRequest, faults.SiteSessionLoad) and, via each session's
	// engine options, the engine seams. Nil is inert.
	Faults *faults.Injector
	// Logger receives admission, watchdog, and lifecycle events.
	Logger *infra.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxQueuePerSession <= 0 {
		c.MaxQueuePerSession = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 2 * time.Second
	}
	return c
}

// Server is the odrcd service state. Construct with New; serve via
// Handler.
type Server struct {
	cfg  Config
	base context.Context // lifecycle context: outlives requests, for deferred session closes
	sem  chan struct{}   // global admission semaphore, capacity MaxInFlight
	mux  *http.ServeMux

	reg   *registry
	sched *pool.Scheduler // shared tenant-fair worker set for every check's fan-outs
	svc   svcClock        // recent-service-time estimate behind Retry-After
}

// New builds a server. base is the process lifecycle context — it must
// outlive every request (deferred session teardown runs under it); main
// passes a context that is NOT cancelled by the shutdown signal, so
// draining can still close sessions cleanly.
func New(base context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		base: base,
		sem:  make(chan struct{}, cfg.MaxInFlight),
		reg:  newRegistry(),
		sched: pool.NewScheduler(pool.SchedConfig{
			Workers: cfg.SchedWorkers,
			Policy:  pool.FairShare,
			Weights: cfg.TenantWeights,
			Faults:  cfg.Faults,
		}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/check", s.handleCheck)
	mux.HandleFunc("POST /v1/sessions/{id}/edit", s.handleEdit)
	mux.HandleFunc("POST /v1/sessions/{id}/invalidate", s.handleInvalidate)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleSessionStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/goroutines", s.handleGoroutines)
	mux.HandleFunc("GET /debug/sched", s.handleSched)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into shutdown mode: session creation and new
// checks answer 503 while in-flight work finishes. Idempotent.
func (s *Server) Drain() { s.reg.drain() }

// CloseAll closes every session, releasing resident device buffers, and
// stops the fair scheduler's shared workers. Called after the HTTP
// listener has drained; sessions still referenced by abandoned
// (watchdog-expired) checks close when their last reference drops (their
// fan-outs finish on their own goroutines — a closed scheduler falls back
// to direct execution). Returns the number of sessions closed now.
func (s *Server) CloseAll(ctx context.Context) int {
	n := s.reg.closeAll(ctx, s.cfg.Logger)
	s.sched.Close()
	return n
}

// errorBody is the JSON error shape every non-200 response carries.
type errorBody struct {
	Error   string        `json:"error"`
	Request string        `json:"request,omitempty"` // "<session>/check#<seq>"
	Budget  *budget.Error `json:"budget,omitempty"`  // structured budget trip, when one caused the error
	Site    string        `json:"site,omitempty"`    // injected-fault seam, when one caused the error
	Key     string        `json:"key,omitempty"`
}

// writeError emits the JSON error body. Inspecting err decorates the body:
// a wrapped *budget.Error and an injected fault's site/key surface
// structurally.
func writeError(w http.ResponseWriter, status int, reqID string, err error) {
	body := errorBody{Error: err.Error(), Request: reqID, Budget: budget.FromError(err)}
	var ie *faults.InjectedError
	if errors.As(err, &ie) {
		body.Site = ie.Site
		body.Key = ie.Key
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// writeErrorf is writeError for message-only errors.
func writeErrorf(w http.ResponseWriter, status int, reqID, format string, args ...any) {
	writeError(w, status, reqID, fmt.Errorf(format, args...))
}

// svcClock is an EWMA over recently completed checks' host wall time. The
// engine measures each report's HostWall, so the estimate needs no clock
// reads of its own.
type svcClock struct {
	mu   sync.Mutex
	ewma time.Duration //odrc:guardedby mu
}

// note folds one completed check's wall time into the estimate (weight
// 1/4: recent checks dominate, one outlier does not).
func (c *svcClock) note(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if c.ewma == 0 {
		c.ewma = d
	} else {
		c.ewma = (3*c.ewma + d) / 4
	}
	c.mu.Unlock()
}

// estimate returns the current per-check service-time estimate (0 before
// any check completed).
func (c *svcClock) estimate() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ewma
}

// maxRetryAfter caps the back-off hint; beyond it a client should treat
// the service as down rather than politely waiting.
const maxRetryAfter = 60

// retryAfterSeconds derives the 429 back-off hint from the current load:
// the estimated time for the admitted backlog to drain (in-flight checks ×
// recent per-check service time), in whole seconds, clamped to
// [1, maxRetryAfter]. With no history yet the hint is the old static 1s.
func (s *Server) retryAfterSeconds() int64 {
	est := s.svc.estimate()
	if est <= 0 {
		return 1
	}
	depth := int64(len(s.sem))
	if depth < 1 {
		depth = 1
	}
	secs := (est.Milliseconds()*depth + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	return secs
}

// overloaded answers 429 with a Retry-After hint proportional to the
// current queue depth and recent service time.
func (s *Server) overloaded(w http.ResponseWriter, reqID, what string) {
	w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
	writeErrorf(w, http.StatusTooManyRequests, reqID, "overloaded: %s; retry later", what)
}

// handleSched exposes the fair scheduler's dispatch state: policy, shared
// worker count, and per-tenant pass/queue/dispatch accounting.
func (s *Server) handleSched(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Snapshot())
}

// handleHealthz reports liveness and load.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.reg.draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"sessions": s.reg.count(),
		"inflight": len(s.sem),
	})
}

// handleGoroutines exposes the process goroutine count (and, with
// ?stacks=1, the full dump) — the observability hook the leak checks in
// the chaos suite and the CI smoke poll.
func (s *Server) handleGoroutines(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stacks") != "" {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write(buf[:n])
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"goroutines": runtime.NumGoroutine()})
}

// writeJSON emits v with a deterministic shape (encoding/json sorts map
// keys).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// sortedIDs returns map keys in order (deterministic listings).
func sortedIDs[T any](m map[string]T) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// parseTimeout resolves a request's deadline from its timeout_ms, applying
// the default and the clamp.
func (s *Server) parseTimeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// header i64 helper.
func setIntHeader(w http.ResponseWriter, key string, v int64) {
	w.Header().Set(key, strconv.FormatInt(v, 10))
}
