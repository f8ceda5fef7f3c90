package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"opendrc/internal/core"
	"opendrc/internal/faults"
	"opendrc/internal/pool"
	"opendrc/internal/rules"
	"opendrc/internal/trace"
)

// The check path. An admitted check holds three resources until the engine
// actually returns: a global admission slot (s.sem), a per-session queue
// slot (FIFO order comes free — waiters on the session's channel lock wake
// in arrival order), and a session lifecycle reference. The child goroutine
// that runs the check owns releasing all three, so a watchdog-abandoned
// runaway keeps its slots until it really finishes and the accounting never
// claims capacity the process doesn't have.

// checkRequest is the POST /v1/sessions/{id}/check body. An empty body runs
// the session's full deck under the server's default deadline.
type checkRequest struct {
	Rules     []string `json:"rules"`      // rule IDs, in order; empty = full deck
	TimeoutMS int64    `json:"timeout_ms"` // end-to-end deadline; 0 = server default
	Dedup     *bool    `json:"dedup"`      // collapse identical violations (default true, like odrc)
	Delta     bool     `json:"delta"`      // incremental re-check of regions edited since the last check
}

// checkOutcome crosses the watchdog boundary from the child goroutine.
type checkOutcome struct {
	rep   *core.Report
	delta *core.DeltaInfo // non-nil for delta checks
	err   error
}

// handleCheck runs one check against a resident session: admission, then a
// deadline-scoped run under the watchdog, then the canonical report.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	h, ok := s.readySession(w, r)
	if !ok {
		return
	}
	if s.reg.draining() {
		s.release(h)
		writeErrorf(w, http.StatusServiceUnavailable, "", "draining: no new checks")
		return
	}
	var req checkRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.release(h)
			writeErrorf(w, http.StatusBadRequest, "", "bad check body: %v", err)
			return
		}
	}
	deck, err := subsetDeck(h.deck, req.Rules)
	if err != nil {
		s.release(h)
		writeError(w, http.StatusBadRequest, "", err)
		return
	}

	// Admission: a global in-flight slot, then a per-session queue slot.
	// Both rejections are immediate 429s — overload sheds load, it never
	// queues unboundedly.
	select {
	case s.sem <- struct{}{}:
	default:
		s.release(h)
		s.overloaded(w, "", "server at capacity")
		return
	}
	if !h.admit(s.cfg.MaxQueuePerSession) {
		<-s.sem
		s.release(h)
		s.overloaded(w, "", "session queue full")
		return
	}
	reqID := h.nextRequestID()
	timeout := s.parseTimeout(req.TimeoutMS)
	// The check context carries three identities: the request ID (tracing),
	// the fair scheduler, and the session's tenant — every ForEachCtx the
	// engine issues under this context is queued per tenant and dispatched
	// weighted-fair against co-tenant load.
	base := pool.WithTenant(pool.WithScheduler(trace.WithRequestID(r.Context(), reqID), s.sched), h.tenant)
	cctx, cancel := context.WithTimeout(base, timeout)

	// The child owns the admission slot, the queue slot, and the session
	// reference: they release when the check actually returns, even if the
	// watchdog abandoned the request long before.
	done := make(chan checkOutcome, 1) // buffered: an abandoned child's send never blocks
	go func() {                        //odrc:allow rawgo — watchdog child: must outlive an abandoned request
		defer func() {
			if v := recover(); v != nil {
				err := fmt.Errorf("server: %s: panic: %v", reqID, v)
				if pv, ok := v.(faults.PanicValue); ok {
					err = fmt.Errorf("server: %s: panic: %w", reqID,
						&faults.InjectedError{Site: pv.Site, Key: pv.Key})
				}
				done <- checkOutcome{err: err}
			}
			cancel()
			h.unadmit()
			<-s.sem
			s.release(h)
		}()
		if err := s.cfg.Faults.Hit(cctx, faults.SiteRequest, reqID); err != nil {
			done <- checkOutcome{err: fmt.Errorf("server: %s: %w", reqID, err)}
			return
		}
		var rep *core.Report
		var info *core.DeltaInfo
		var err error
		if req.Delta {
			var di core.DeltaInfo
			rep, di, err = h.ses.DeltaCheck(cctx, deck)
			info = &di
		} else {
			rep, err = h.ses.Check(cctx, deck)
		}
		if err != nil {
			done <- checkOutcome{err: fmt.Errorf("server: %s: %w", reqID, err)}
			return
		}
		h.mu.Lock()
		h.checks++
		h.mu.Unlock()
		done <- checkOutcome{rep: rep, delta: info}
	}()

	select {
	case out := <-done:
		s.respondCheck(w, reqID, req, out)
	case <-cctx.Done():
		// Deadline hit or client gone. The engine observes cancellation at
		// rule, cell, and row boundaries; give it the grace window to come
		// back cleanly before declaring the check wedged.
		grace := time.NewTimer(s.cfg.WatchdogGrace)
		select {
		case out := <-done:
			grace.Stop()
			s.respondCheck(w, reqID, req, out)
		case <-grace.C:
			s.cfg.Logger.Warnf("server: %s: watchdog abandoned check still running %v past its deadline",
				reqID, s.cfg.WatchdogGrace)
			writeErrorf(w, http.StatusGatewayTimeout, reqID,
				"check abandoned: still running %v past its deadline", s.cfg.WatchdogGrace)
		}
	}
}

// respondCheck maps a finished check onto the wire: the canonical report on
// success, a status-coded JSON error otherwise. The report is rendered into
// one buffer before anything is written, so the reply carries a
// Content-Length and goes out in one Write — and nothing, status line
// included, is on the wire until the whole body exists.
func (s *Server) respondCheck(w http.ResponseWriter, reqID string, req checkRequest, out checkOutcome) {
	if out.err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(out.err, context.DeadlineExceeded), errors.Is(out.err, context.Canceled):
			status = http.StatusGatewayTimeout
		case errors.Is(out.err, core.ErrSessionClosed):
			status = http.StatusConflict // deleted while this check queued
		}
		writeError(w, status, reqID, out.err)
		return
	}
	rep := out.rep
	s.svc.note(rep.HostWall)
	if req.Dedup == nil || *req.Dedup {
		// Dedup on a copy: a response-shaping option never rewrites the
		// report the engine returned.
		dd := *rep
		dd.Violations = core.DedupViolations(rep.Violations)
		rep = &dd
	}
	body := rep.AppendCanonicalJSON(nil)
	w.Header().Set("X-Odrc-Request", reqID)
	w.Header().Set("X-Odrc-Degraded", strconv.FormatBool(rep.Degraded))
	if out.delta != nil {
		// Delta metadata rides in headers: the body stays the canonical
		// report, byte-identical to a cold full check of the edited layout.
		w.Header().Set("X-Odrc-Delta-Planned", strconv.FormatBool(out.delta.Planned))
		if out.delta.Reason != "" {
			w.Header().Set("X-Odrc-Delta-Fallback", out.delta.Reason)
		}
		setIntHeader(w, "X-Odrc-Delta-Rules-Skipped", int64(out.delta.RulesSkipped))
		setIntHeader(w, "X-Odrc-Delta-Rules-Restricted", int64(out.delta.RulesRestricted))
		setIntHeader(w, "X-Odrc-Delta-Rules-Full", int64(out.delta.RulesFull))
	}
	setIntHeader(w, "X-Odrc-Host-Wall-Us", rep.HostWall.Microseconds())
	setIntHeader(w, "X-Odrc-Modeled-Us", rep.Modeled.Microseconds())
	w.Header().Set("Content-Type", "application/json")
	setIntHeader(w, "Content-Length", int64(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.cfg.Logger.Warnf("server: %s: write response: %v", reqID, err)
	}
}

// subsetDeck resolves requested rule IDs against the session deck,
// preserving request order. Empty means the full deck.
func subsetDeck(deck rules.Deck, ids []string) (rules.Deck, error) {
	if len(ids) == 0 {
		return deck, nil
	}
	byID := make(map[string]rules.Rule, len(deck))
	for _, r := range deck {
		byID[r.ID] = r
	}
	out := make(rules.Deck, 0, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("server: unknown rule %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("server: duplicate rule %q in request", id)
		}
		seen[id] = true
		out = append(out, r)
	}
	return out, nil
}
