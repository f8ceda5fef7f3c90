package core

import (
	"os"
	"time"

	"opendrc/internal/gdsii"
	"opendrc/internal/infra"
	"opendrc/internal/layout"
	"opendrc/internal/trace"
)

// Ingest reports where a LoadGDS went: the ledger's first two stages, under
// the names their trace spans and odrcd's session-load log line use.
type Ingest struct {
	Read, Build time.Duration // ingest:read (file bytes → Library), ingest:build (Library → Layout)
	Bytes       int64         // size of the GDSII file
	Structures  int
	Cells       int
}

// LoadGDS reads the GDSII file at path and builds its layout — what the
// batch CLI, the facade and an odrcd session create all start with — timing
// the two stages on the recorder's clock and recording them as the host
// phase spans "ingest:read" and "ingest:build" (a nil recorder only times).
func LoadGDS(path string, rec *trace.Recorder) (*layout.Layout, Ingest, error) {
	var in Ingest
	prof := infra.NewProfilerWithClock(rec.Clock())
	start := prof.Elapsed()
	lib, err := gdsii.ReadFile(path)
	if err != nil {
		return nil, in, err
	}
	mid := prof.Elapsed()
	if st, err := os.Stat(path); err == nil {
		in.Bytes = st.Size()
	}
	in.Read, in.Structures = mid-start, len(lib.Structures)
	rec.Span(trace.TrackPhases, "", "ingest:read", "phase", start, mid,
		trace.Arg{Key: "bytes", Val: in.Bytes}, trace.Arg{Key: "structures", Val: in.Structures})

	lo, err := layout.FromLibrary(lib)
	if err != nil {
		return nil, in, err
	}
	end := prof.Elapsed()
	in.Build, in.Cells = end-mid, len(lo.Cells)
	rec.Span(trace.TrackPhases, "", "ingest:build", "phase", mid, end, trace.Arg{Key: "cells", Val: in.Cells})
	return lo, in, nil
}
