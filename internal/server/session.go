package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"opendrc/internal/budget"
	"opendrc/internal/core"
	"opendrc/internal/faults"
	"opendrc/internal/infra"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

// Session lifecycle. The registry is a single-flight map: the first POST
// for an id inserts a handle and loads the design synchronously in its own
// request goroutine; concurrent requests for the same id wait on the
// handle's ready channel (honoring their contexts) and then share the
// loaded session. A failed load removes the handle, so a retry loads
// fresh instead of replaying a cached error forever. Deletion is
// reference-counted: DELETE unregisters the id immediately (new requests
// 404) and the session closes when the last in-flight request — including
// any watchdog-abandoned check still running — releases it.

// sessionHandle is one loaded (or loading) design.
type sessionHandle struct {
	id    string
	ready chan struct{} // closed when load completes (ok or not)

	// Immutable after ready closes.
	loadErr error
	ses     *core.Session
	deck    rules.Deck
	ingest  core.Ingest // where the load's time went, for the session-load log line
	design  string      // "synth:uart" or "gds:<path>"
	mode    string
	tenant  string // fair-scheduler queue this session's checks run in
	weight  int    // resolved scheduler weight for that tenant

	mu sync.Mutex
	// seq is the next check sequence (per-session arrival order); queued
	// counts admitted checks (running + waiting); refs counts in-flight
	// requests holding the session; doomed marks a deleted handle that
	// closes on last release; checks counts completed checks for listings.
	seq    int  //odrc:guardedby mu
	queued int  //odrc:guardedby mu
	refs   int  //odrc:guardedby mu
	doomed bool //odrc:guardedby mu
	checks int  //odrc:guardedby mu
}

// nextRequestID assigns the request its deterministic identity:
// "<session>/check#<seq>" in per-session arrival order.
func (h *sessionHandle) nextRequestID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := fmt.Sprintf("%s/check#%d", h.id, h.seq)
	h.seq++
	return id
}

// admit reserves a per-session queue slot; false means the session's queue
// is full.
func (h *sessionHandle) admit(limit int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.queued >= limit {
		return false
	}
	h.queued++
	return true
}

// unadmit returns the queue slot.
func (h *sessionHandle) unadmit() {
	h.mu.Lock()
	h.queued--
	h.mu.Unlock()
}

// acquire takes a lifecycle reference. False when the session was deleted.
func (h *sessionHandle) acquire() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.doomed {
		return false
	}
	h.refs++
	return true
}

// release drops a lifecycle reference; the caller that drops the last
// reference of a doomed handle closes the session under the server's
// lifecycle context (requests' own contexts may already be done).
func (h *sessionHandle) release(base context.Context, log *infra.Logger) {
	h.mu.Lock()
	h.refs--
	last := h.doomed && h.refs == 0
	h.mu.Unlock()
	if last {
		h.close(base, log)
	}
}

// close releases the session's resident state.
func (h *sessionHandle) close(ctx context.Context, log *infra.Logger) {
	if h.ses == nil {
		return
	}
	if err := h.ses.Close(ctx); err != nil {
		log.Warnf("server: session %s: close: %v", h.id, err)
		return
	}
	log.Infof("server: session %s closed", h.id)
}

// registry is the id → handle map plus the draining flag.
type registry struct {
	mu       sync.Mutex
	sessions map[string]*sessionHandle //odrc:guardedby mu
	down     bool                      //odrc:guardedby mu
}

func newRegistry() *registry {
	return &registry{sessions: make(map[string]*sessionHandle)}
}

func (r *registry) draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

func (r *registry) drain() {
	r.mu.Lock()
	r.down = true
	r.mu.Unlock()
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// lookup returns the handle for id, or nil.
func (r *registry) lookup(id string) *sessionHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[id]
}

// insert registers a new loading handle, or returns the existing one
// (single-flight: exactly one caller gets inserted=true and must load).
// Draining registries refuse inserts.
func (r *registry) insert(id string) (h *sessionHandle, inserted bool, draining bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return nil, false, true
	}
	if h, ok := r.sessions[id]; ok {
		return h, false, false
	}
	h = &sessionHandle{id: id, ready: make(chan struct{})}
	r.sessions[id] = h
	return h, true, false
}

// remove unregisters id if it still maps to h (a failed load must not
// evict a successor registered after a retry).
func (r *registry) remove(id string, h *sessionHandle) {
	r.mu.Lock()
	if r.sessions[id] == h {
		delete(r.sessions, id)
	}
	r.mu.Unlock()
}

// closeAll dooms every session and closes the unreferenced ones now;
// referenced ones close on their last release. Returns how many closed
// now.
func (r *registry) closeAll(ctx context.Context, log *infra.Logger) int {
	r.mu.Lock()
	handles := make([]*sessionHandle, 0, len(r.sessions))
	for _, id := range sortedIDs(r.sessions) {
		handles = append(handles, r.sessions[id])
	}
	r.sessions = make(map[string]*sessionHandle)
	r.mu.Unlock()

	closed := 0
	for _, h := range handles {
		h.mu.Lock()
		h.doomed = true
		free := h.refs == 0
		h.mu.Unlock()
		if free {
			h.close(ctx, log)
			closed++
		} else {
			log.Infof("server: session %s busy at shutdown; closes on last release", h.id)
		}
	}
	return closed
}

// createRequest is the POST /v1/sessions body.
type createRequest struct {
	ID              string  `json:"id"`                // default: design name / GDS basename
	Tenant          string  `json:"tenant"`            // fair-scheduler tenant (default: the session id)
	Design          string  `json:"design"`            // synth design profile (aes, ..., uart)
	Scale           float64 `json:"scale"`             // synth instance-count scale (default 1)
	GDS             string  `json:"gds"`               // GDSII path (alternative to Design)
	Mode            string  `json:"mode"`              // "seq" or "par" (default "par")
	Deck            string  `json:"deck"`              // optional deck text (default: standard deck)
	Workers         int     `json:"workers"`           // engine fan-out worker bound (0 = GOMAXPROCS)
	MaxFlattenPolys int64   `json:"max_flatten_polys"` // session budgets; 0 = unlimited
	MaxPackedEdges  int64   `json:"max_packed_edges"`
	MaxDeviceBytes  int64   `json:"max_device_bytes"`
}

// handleCreateSession loads a design into a resident session (single-
// flight, idempotent). 201 on a fresh load, 200 when the id already serves
// the same design, 409 when it serves a different one.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrorf(w, http.StatusBadRequest, "", "bad create body: %v", err)
		return
	}
	if (req.Design == "") == (req.GDS == "") {
		writeErrorf(w, http.StatusBadRequest, "", "exactly one of design or gds is required")
		return
	}
	design := "gds:" + req.GDS
	if req.Design != "" {
		design = "synth:" + req.Design
	}
	id := req.ID
	if id == "" {
		if req.Design != "" {
			id = req.Design
		} else {
			parts := strings.Split(req.GDS, "/")
			id = strings.TrimSuffix(parts[len(parts)-1], ".gds")
		}
	}
	mode := req.Mode
	if mode == "" {
		mode = "par"
	}
	if mode != "seq" && mode != "par" {
		writeErrorf(w, http.StatusBadRequest, "", "unknown mode %q (want seq or par)", mode)
		return
	}

	h, inserted, draining := s.reg.insert(id)
	if draining {
		writeErrorf(w, http.StatusServiceUnavailable, "", "draining: no new sessions")
		return
	}
	if !inserted {
		// Wait for the loader, then answer idempotently.
		select {
		case <-h.ready:
		case <-r.Context().Done():
			writeError(w, http.StatusGatewayTimeout, "", r.Context().Err())
			return
		}
		if h.loadErr != nil {
			writeError(w, http.StatusBadGateway, "", h.loadErr)
			return
		}
		if h.design != design || h.mode != mode {
			writeErrorf(w, http.StatusConflict, "",
				"session %s already serves %s (%s mode)", id, h.design, h.mode)
			return
		}
		s.sessionJSON(w, http.StatusOK, h)
		return
	}

	// This request owns the load. Everything below runs at most once per
	// handle; a failure unregisters the id so a retry can succeed.
	err := s.load(r.Context(), h, req, design, mode)
	close(h.ready)
	if err != nil {
		s.reg.remove(id, h)
		s.cfg.Logger.Warnf("server: session %s: load failed: %v", id, err)
		status := http.StatusBadGateway
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, "", err)
		return
	}
	s.cfg.Logger.Infof("server: session %s loaded (%s, %s mode, %d rules) read_ms=%.1f build_ms=%.1f gds_bytes=%d",
		id, design, mode, len(h.deck), h.ingest.Read.Seconds()*1e3, h.ingest.Build.Seconds()*1e3, h.ingest.Bytes)
	s.sessionJSON(w, http.StatusCreated, h)
}

// load parses the design and builds the resident session, consulting the
// session-load fault seam first (keyed by session id, so the chaos suite
// targets loads deterministically).
func (s *Server) load(ctx context.Context, h *sessionHandle, req createRequest, design, mode string) error {
	h.design = design
	h.mode = mode
	h.tenant = req.Tenant
	if h.tenant == "" {
		h.tenant = h.id // sessions are their own tenant unless grouped
	}
	h.weight = s.sched.Weight(h.tenant)
	if err := s.cfg.Faults.Hit(ctx, faults.SiteSessionLoad, h.id); err != nil {
		h.loadErr = fmt.Errorf("server: session %s: load: %w", h.id, err)
		return h.loadErr
	}
	var db *layout.Layout
	var err error
	if req.Design != "" {
		scale := req.Scale
		if scale == 0 {
			scale = 1
		}
		// A generated design has no file to read: generating it is its build.
		stop := infra.NewProfiler().Phase("ingest:build")
		db, _, err = synth.Load(req.Design, scale)
		h.ingest.Build = stop()
	} else {
		db, h.ingest, err = core.LoadGDS(req.GDS, nil)
	}
	if err != nil {
		h.loadErr = fmt.Errorf("server: session %s: load: %w", h.id, err)
		return h.loadErr
	}
	deck := synth.Deck()
	if req.Deck != "" {
		deck, err = rules.ParseDeck(strings.NewReader(req.Deck))
		if err != nil {
			h.loadErr = fmt.Errorf("server: session %s: deck: %w", h.id, err)
			return h.loadErr
		}
	}
	if err := deck.Validate(); err != nil {
		h.loadErr = fmt.Errorf("server: session %s: deck: %w", h.id, err)
		return h.loadErr
	}
	opts := core.Options{
		Workers: req.Workers,
		Budgets: budget.Limits{
			MaxFlattenPolys: req.MaxFlattenPolys,
			MaxPackedEdges:  req.MaxPackedEdges,
			MaxDeviceBytes:  req.MaxDeviceBytes,
		},
		Faults: s.cfg.Faults,
		Logger: s.cfg.Logger,
	}
	if mode == "par" {
		opts.Mode = core.Parallel
	}
	h.deck = deck
	h.ses = core.NewSession(db, opts)
	return nil
}

// sessionJSON renders one session's listing entry.
func (s *Server) sessionJSON(w http.ResponseWriter, status int, h *sessionHandle) {
	writeJSON(w, status, s.sessionInfo(h))
}

func (s *Server) sessionInfo(h *sessionHandle) map[string]any {
	h.mu.Lock()
	checks, queued := h.checks, h.queued
	h.mu.Unlock()
	info := map[string]any{
		"id":     h.id,
		"design": h.design,
		"mode":   h.mode,
		"rules":  len(h.deck),
		"checks": checks,
		"queued": queued,
		"tenant": h.tenant,
		"weight": h.weight,
	}
	if dev := h.ses.Device(); dev != nil {
		inUse, _, _, _ := dev.PoolStats()
		info["resident_bytes"] = inUse
		info["modeled_us"] = dev.HostClock().Microseconds()
	}
	return info
}

// handleListSessions lists loaded sessions in id order.
func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.reg.mu.Lock()
	ids := sortedIDs(s.reg.sessions)
	handles := make([]*sessionHandle, 0, len(ids))
	for _, id := range ids {
		handles = append(handles, s.reg.sessions[id])
	}
	s.reg.mu.Unlock()
	out := make([]map[string]any, 0, len(handles))
	for _, h := range handles {
		select {
		case <-h.ready:
		default:
			out = append(out, map[string]any{"id": h.id, "design": h.design, "loading": true})
			continue
		}
		if h.loadErr == nil {
			out = append(out, s.sessionInfo(h))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// handleDeleteSession unregisters the session and closes it once idle.
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h := s.reg.lookup(id)
	if h == nil {
		writeErrorf(w, http.StatusNotFound, "", "no session %q", id)
		return
	}
	select {
	case <-h.ready:
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "", r.Context().Err())
		return
	}
	s.reg.remove(id, h)
	h.mu.Lock()
	h.doomed = true
	free := h.refs == 0
	h.mu.Unlock()
	if free {
		h.close(r.Context(), s.cfg.Logger)
	} else {
		s.cfg.Logger.Infof("server: session %s busy; closes on last release", id)
	}
	// Drop the tenant's scheduler bookkeeping if it went idle with the
	// session (a no-op while co-sessions of the same tenant still run).
	s.sched.Forget(h.tenant)
	w.WriteHeader(http.StatusNoContent)
}

// handleInvalidate drops the session's resident geometry (the hook for
// designs mutated on disk and reloaded elsewhere, and for tests).
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	h, ok := s.readySession(w, r)
	if !ok {
		return
	}
	defer h.release(s.base, s.cfg.Logger)
	if err := h.ses.InvalidateAll(r.Context()); err != nil {
		writeError(w, http.StatusGatewayTimeout, "", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readySession resolves the path's session, waits for its load, and takes
// a lifecycle reference the caller must release. On failure it has written
// the response.
func (s *Server) readySession(w http.ResponseWriter, r *http.Request) (*sessionHandle, bool) {
	id := r.PathValue("id")
	h := s.reg.lookup(id)
	if h == nil {
		writeErrorf(w, http.StatusNotFound, "", "no session %q", id)
		return nil, false
	}
	select {
	case <-h.ready:
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "", r.Context().Err())
		return nil, false
	}
	if h.loadErr != nil {
		writeError(w, http.StatusBadGateway, "", h.loadErr)
		return nil, false
	}
	if !h.acquire() {
		writeErrorf(w, http.StatusNotFound, "", "session %q is closing", id)
		return nil, false
	}
	return h, true
}
