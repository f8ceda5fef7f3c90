package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"opendrc/internal/core"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
)

// The edit path. POST /v1/sessions/{id}/edit applies in-place layout edits
// to a resident session and records their dirty regions, so a subsequent
// check with "delta": true re-checks only the edited neighborhood. The
// response summarizes what changed per layer; an empty edit list is a 400.

// editOp is one edit in the POST body. Rect bounds use the same lowercase
// scalar fields the canonical report uses for violation boxes.
type editOp struct {
	Op    string `json:"op"` // "insert_rect" or "delete_region"
	Layer int16  `json:"layer"`
	XLo   int64  `json:"xlo"`
	YLo   int64  `json:"ylo"`
	XHi   int64  `json:"xhi"`
	YHi   int64  `json:"yhi"`
}

// editRequest is the POST /v1/sessions/{id}/edit body.
type editRequest struct {
	Edits []editOp `json:"edits"`
}

// editLayerResult is one layer's dirty summary in the edit response.
type editLayerResult struct {
	Layer    int16 `json:"layer"`
	Inserted int   `json:"inserted"`
	Deleted  int   `json:"deleted"`
	Rects    int   `json:"dirty_rects"`
}

// handleEdit applies layout edits to the session and reports the per-layer
// dirty summary the next delta check will consume.
func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	h, ok := s.readySession(w, r)
	if !ok {
		return
	}
	defer s.release(h)
	var req editRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErrorf(w, http.StatusBadRequest, "", "bad edit body: %v", err)
		return
	}
	if len(req.Edits) == 0 {
		writeErrorf(w, http.StatusBadRequest, "", "empty edit list")
		return
	}
	edits := make([]layout.Edit, len(req.Edits))
	for i, e := range req.Edits {
		var op layout.EditOp
		switch e.Op {
		case layout.OpInsertRect.String():
			op = layout.OpInsertRect
		case layout.OpDeleteRegion.String():
			op = layout.OpDeleteRegion
		default:
			writeErrorf(w, http.StatusBadRequest, "", "edit %d: unknown op %q", i, e.Op)
			return
		}
		edits[i] = layout.Edit{
			Op:    op,
			Layer: layout.Layer(e.Layer),
			Rect:  geom.Rect{XLo: e.XLo, YLo: e.YLo, XHi: e.XHi, YHi: e.YHi},
		}
	}
	dirty, err := h.ses.Edit(r.Context(), edits)
	if err != nil {
		// Edits are validated before any is applied, so a non-lifecycle error
		// means a bad request and an unchanged layout.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, core.ErrSessionClosed):
			status = http.StatusConflict
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, "", err)
		return
	}
	out := make([]editLayerResult, len(dirty))
	for i, d := range dirty {
		out[i] = editLayerResult{
			Layer: int16(d.Layer), Inserted: d.Inserted,
			Deleted: d.Deleted, Rects: len(d.Rects),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": len(edits), "layers": out})
}

// handleSessionStats serves the session's resident-state footprint and
// check-traffic counters: geocache hit/miss and invalidation totals,
// device-resident buffer bytes, and full-vs-delta check counts.
func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	h, ok := s.readySession(w, r)
	if !ok {
		return
	}
	defer s.release(h)
	st, err := h.ses.StatsSnapshot(r.Context())
	if err != nil {
		status := http.StatusGatewayTimeout
		if errors.Is(err, core.ErrSessionClosed) {
			status = http.StatusConflict
		}
		writeError(w, status, "", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     h.id,
		"tenant": h.tenant,
		"weight": h.weight,
		"stats":  st,
	})
}
