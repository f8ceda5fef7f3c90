package core

import (
	"encoding/json"
	"io"

	"opendrc/internal/budget"
)

// This file keeps the encoding/json struct forms the package marshalled its
// reports through before the append encoder, verbatim but for their names:
// they are the reference FuzzReportJSON and TestReportJSONMatchesReference
// hold WriteJSON and WriteCanonicalJSON to, byte for byte.

// refViolation is the serialized form of one violation.
type refViolation struct {
	Rule   string `json:"rule"`
	Kind   string `json:"kind"`
	Layer  int16  `json:"layer"`
	XLo    int64  `json:"xlo"`
	YLo    int64  `json:"ylo"`
	XHi    int64  `json:"xhi"`
	YHi    int64  `json:"yhi"`
	Dist   int64  `json:"dist"`
	Corner bool   `json:"corner,omitempty"`
	Cell   string `json:"cell,omitempty"`
}

// refFailure is the serialized form of one isolated rule failure.
type refFailure struct {
	Rule           string        `json:"rule"`
	Err            string        `json:"err"`
	Panicked       bool          `json:"panicked,omitempty"`
	BudgetExceeded bool          `json:"budget_exceeded,omitempty"`
	Budget         *budget.Error `json:"budget,omitempty"`
}

// refReport is the serialized form of a check run.
type refReport struct {
	Mode        string         `json:"mode"`
	Degraded    bool           `json:"degraded,omitempty"`
	Failures    []refFailure   `json:"failures,omitempty"`
	Violations  []refViolation `json:"violations"`
	CountByRule map[string]int `json:"count_by_rule"`
	HostWallUS  int64          `json:"host_wall_us"`
	ModeledUS   int64          `json:"modeled_us"`
	Stats       Stats          `json:"stats"`
}

// refWriteJSON is the former Report.WriteJSON.
func refWriteJSON(r *Report, w io.Writer) error {
	out := refReport{
		Mode:        r.Mode.String(),
		Degraded:    r.Degraded,
		Violations:  make([]refViolation, 0, len(r.Violations)),
		CountByRule: r.CountByRule(),
		HostWallUS:  r.HostWall.Microseconds(),
		ModeledUS:   r.Modeled.Microseconds(),
		Stats:       r.Stats,
	}
	for _, f := range r.Failures {
		out.Failures = append(out.Failures, refFailure{
			Rule: f.Rule, Err: f.Err,
			Panicked: f.Panicked, BudgetExceeded: f.BudgetExceeded,
			Budget: f.Budget,
		})
	}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations, refViolation{
			Rule: v.Rule, Kind: v.Kind.String(), Layer: int16(v.Layer),
			XLo: v.Marker.Box.XLo, YLo: v.Marker.Box.YLo,
			XHi: v.Marker.Box.XHi, YHi: v.Marker.Box.YHi,
			Dist: v.Marker.Dist, Corner: v.Marker.Corner, Cell: v.Cell,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// refCanonical is the configuration-independent serialized form.
type refCanonical struct {
	Mode        string         `json:"mode"`
	Degraded    bool           `json:"degraded,omitempty"`
	Failures    []refFailure   `json:"failures,omitempty"`
	Violations  []refViolation `json:"violations"`
	CountByRule map[string]int `json:"count_by_rule"`
}

// refWriteCanonicalJSON is the former Report.WriteCanonicalJSON.
func refWriteCanonicalJSON(r *Report, w io.Writer) error {
	out := refCanonical{
		Mode:        r.Mode.String(),
		Degraded:    r.Degraded,
		Violations:  make([]refViolation, 0, len(r.Violations)),
		CountByRule: r.CountByRule(),
	}
	for _, f := range r.Failures {
		out.Failures = append(out.Failures, refFailure{
			Rule: f.Rule, Err: f.Err,
			Panicked: f.Panicked, BudgetExceeded: f.BudgetExceeded,
			Budget: f.Budget,
		})
	}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations, refViolation{
			Rule: v.Rule, Kind: v.Kind.String(), Layer: int16(v.Layer),
			XLo: v.Marker.Box.XLo, YLo: v.Marker.Box.YLo,
			XHi: v.Marker.Box.XHi, YHi: v.Marker.Box.YHi,
			Dist: v.Marker.Dist, Corner: v.Marker.Corner, Cell: v.Cell,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
