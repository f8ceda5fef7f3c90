package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"opendrc/internal/layout"
	"opendrc/internal/rules"
)

// Report output — the interface layer's "result output" duty: a stable text
// form for humans and a JSON form for downstream tooling (the paper's
// motivation of serving as infrastructure "for data collection and golden
// result acquiring for ML applications").
//
// Both JSON forms are rendered by one append encoder with literal keys and
// indentation, into one buffer sized up front. Its bytes are exactly what
// encoding/json with SetIndent("", "  ") makes of the struct forms the
// package used to marshal: reportio_reference_test.go keeps those structs,
// and FuzzReportJSON holds the encoder to them byte for byte. Only two things
// still go through encoding/json: a string holding a byte it would escape
// (so HTML escaping, U+2028/2029 and invalid UTF-8 cannot drift), and the
// full form's Stats object.
//
// A violation renders as
//
//	{"rule", "kind", "layer", "xlo", "ylo", "xhi", "yhi", "dist", "corner" (only when true), "cell" (only when set)}
//
// and a failure as {"rule", "err", "panicked", "budget_exceeded", "budget"},
// the last three only when set. The panic stack is deliberately omitted (it
// is host-specific and would break report comparisons); consumers that need
// it read the Report struct directly. "budget" carries the tripped budget
// structurally ({"resource", "limit", "used"}).

// WriteJSON serializes the report for downstream tools: the canonical form's
// fields, then the host and modeled timings and the run's Stats.
func (r *Report) WriteJSON(w io.Writer) error {
	stats, err := json.MarshalIndent(r.Stats, "  ", "  ")
	if err != nil {
		return err
	}
	var top jsonNest
	b := r.appendVerdict(make([]byte, 0, r.jsonSizeHint()+len(stats)), &top)
	b = strconv.AppendInt(top.key(b, "host_wall_us"), r.HostWall.Microseconds(), 10)
	b = strconv.AppendInt(top.key(b, "modeled_us"), r.Modeled.Microseconds(), 10)
	b = append(top.key(b, "stats"), stats...)
	_, err = w.Write(append(top.end(b, '}'), '\n'))
	return err
}

// WriteCanonicalJSON serializes the report's canonical form (see
// AppendCanonicalJSON).
func (r *Report) WriteCanonicalJSON(w io.Writer) error {
	_, err := w.Write(r.AppendCanonicalJSON(nil))
	return err
}

// AppendCanonicalJSON appends the report's canonical form to b and returns
// the extended buffer. The canonical form is the check verdict alone — mode,
// degraded flag, failures, violations in the order the report holds them
// (canonical, as the engine returns it) and per-rule counts — without
// everything a run's environment perturbs: host and modeled timings, and the
// scheduling/cache counters in Stats (a resident session's cache hits where a
// batch run misses). So the same layout and deck produce byte-identical
// output from the batch CLI, a cold session and a warm one; the byte-diff the
// service smoke test runs is this form.
func (r *Report) AppendCanonicalJSON(b []byte) []byte {
	var top jsonNest
	b = r.appendVerdict(slices.Grow(b, r.jsonSizeHint()), &top)
	return append(top.end(b, '}'), '\n')
}

// jsonSizeHint is a generous estimate of the rendered report, so the buffer
// is allocated once: a violation renders to about 175 bytes.
func (r *Report) jsonSizeHint() int {
	return 512 + 192*len(r.Violations) + 256*len(r.Failures)
}

// appendVerdict opens the report object and appends the members both forms
// share, leaving the object open on top.
func (r *Report) appendVerdict(b []byte, top *jsonNest) []byte {
	b = appendJSONString(top.key(append(b, '{'), "mode"), r.Mode.String())
	if r.Degraded {
		b = append(top.key(b, "degraded"), "true"...)
	}
	if len(r.Failures) > 0 {
		list := jsonNest{depth: 1}
		b = append(top.key(b, "failures"), '[')
		for i := range r.Failures {
			b = appendFailure(list.next(b), &r.Failures[i])
		}
		b = list.end(b, ']')
	}
	list := jsonNest{depth: 1}
	b = append(top.key(b, "violations"), '[')
	for i := range r.Violations {
		b = appendViolation(list.next(b), &r.Violations[i])
	}
	b = list.end(b, ']')
	return appendCountByRule(top.key(b, "count_by_rule"), r.Violations)
}

// appendViolation appends one violation object at depth 2.
func appendViolation(b []byte, v *rules.Violation) []byte {
	o := jsonNest{depth: 2}
	b = append(b, '{')
	b = appendJSONString(o.key(b, "rule"), v.Rule)
	b = appendJSONString(o.key(b, "kind"), v.Kind.String())
	b = strconv.AppendInt(o.key(b, "layer"), int64(v.Layer), 10)
	box := v.Marker.Box
	b = strconv.AppendInt(o.key(b, "xlo"), box.XLo, 10)
	b = strconv.AppendInt(o.key(b, "ylo"), box.YLo, 10)
	b = strconv.AppendInt(o.key(b, "xhi"), box.XHi, 10)
	b = strconv.AppendInt(o.key(b, "yhi"), box.YHi, 10)
	b = strconv.AppendInt(o.key(b, "dist"), v.Marker.Dist, 10)
	if v.Marker.Corner {
		b = append(o.key(b, "corner"), "true"...)
	}
	if v.Cell != "" {
		b = appendJSONString(o.key(b, "cell"), v.Cell)
	}
	return o.end(b, '}')
}

// appendFailure appends one rule failure object at depth 2.
func appendFailure(b []byte, f *RuleFailure) []byte {
	o := jsonNest{depth: 2}
	b = append(b, '{')
	b = appendJSONString(o.key(b, "rule"), f.Rule)
	b = appendJSONString(o.key(b, "err"), f.Err)
	if f.Panicked {
		b = append(o.key(b, "panicked"), "true"...)
	}
	if f.BudgetExceeded {
		b = append(o.key(b, "budget_exceeded"), "true"...)
	}
	if be := f.Budget; be != nil {
		bo := jsonNest{depth: 3}
		b = append(o.key(b, "budget"), '{')
		b = appendJSONString(bo.key(b, "resource"), be.Resource)
		b = strconv.AppendInt(bo.key(b, "limit"), be.Limit, 10)
		b = strconv.AppendInt(bo.key(b, "used"), be.Used, 10)
		b = bo.end(b, '}')
	}
	return o.end(b, '}')
}

// appendCountByRule appends the violations per rule ID as an object keyed in
// byte order, the order encoding/json gives a map's keys. A report in
// canonical order holds each rule's violations as one run, runs in that same
// order, so one pass writes the object; on any other order the pass stops and
// the object is rewritten from a sorted copy of the IDs.
func appendCountByRule(b []byte, vs []rules.Violation) []byte {
	start := len(b)
	o := jsonNest{depth: 1}
	b = append(b, '{')
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j].Rule == vs[i].Rule {
			j++
		}
		if i > 0 && vs[i].Rule <= vs[i-1].Rule {
			return appendCountSorted(b[:start], vs)
		}
		b = appendCount(o.next(b), vs[i].Rule, j-i)
		i = j
	}
	return o.end(b, '}')
}

// appendCountSorted is appendCountByRule for violations in any order.
func appendCountSorted(b []byte, vs []rules.Violation) []byte {
	ids := make([]string, len(vs))
	for i := range vs {
		ids[i] = vs[i].Rule
	}
	slices.Sort(ids)
	o := jsonNest{depth: 1}
	b = append(b, '{')
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		b = appendCount(o.next(b), ids[i], j-i)
		i = j
	}
	return o.end(b, '}')
}

// appendCount appends one count_by_rule member after its indentation.
func appendCount(b []byte, rule string, n int) []byte {
	b = append(appendJSONString(b, rule), ": "...)
	return strconv.AppendInt(b, int64(n), 10)
}

// jsonNest lays out one object's members or one array's elements the way
// encoding/json's indenting encoder does: one per line at depth+1, the
// closing bracket on its own line at depth, and an empty one as {} or [].
type jsonNest struct {
	depth, n int
}

// jsonIndent holds the indentation of the report's deepest member (a failure's
// budget fields, depth 4), two spaces per level.
const jsonIndent = "        "

// next starts the next member or element: the comma ending the previous one,
// a newline and the indentation.
func (x *jsonNest) next(b []byte) []byte {
	if x.n > 0 {
		b = append(b, ',')
	}
	x.n++
	b = append(b, '\n')
	return append(b, jsonIndent[:2*x.depth+2]...)
}

// key starts the next member under a literal key that needs no escaping.
func (x *jsonNest) key(b []byte, k string) []byte {
	b = append(x.next(b), '"')
	b = append(b, k...)
	return append(b, `": `...)
}

// end closes the object or array with c.
func (x *jsonNest) end(b []byte, c byte) []byte {
	if x.n > 0 {
		b = append(b, '\n')
		b = append(b, jsonIndent[:2*x.depth]...)
	}
	return append(b, c)
}

// appendJSONString appends s as a JSON string. Printable ASCII other than the
// five characters encoding/json escapes by default ("\<>&) is copied as it
// is; a string holding anything else is marshalled whole by encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteText renders a human-readable report: a per-rule summary followed by
// one line per violation.
func (r *Report) WriteText(w io.Writer, deck rules.Deck) error {
	if _, err := fmt.Fprintf(w, "%d violations in %v (%s mode)\n",
		len(r.Violations), r.HostWall.Round(time.Microsecond), r.Mode); err != nil {
		return err
	}
	if r.Degraded {
		if _, err := fmt.Fprintf(w, "DEGRADED: %d rule(s) failed; their results are excluded\n",
			len(r.Failures)); err != nil {
			return err
		}
		for _, f := range r.Failures {
			if _, err := fmt.Fprintf(w, "  FAILED %-14s %s\n", f.Rule, f.Err); err != nil {
				return err
			}
		}
	}
	counts := r.CountByRule()
	for _, rule := range deck {
		if _, err := fmt.Fprintf(w, "  %-14s %6d\n", rule.ID, counts[rule.ID]); err != nil {
			return err
		}
	}
	for _, v := range r.Violations {
		cell := v.Cell
		if cell == "" {
			cell = "-"
		}
		if _, err := fmt.Fprintf(w, "%-14s %-4s %v d=%d cell=%s\n",
			v.Rule, layout.LayerName(v.Layer), v.Marker.Box, v.Marker.Dist, cell); err != nil {
			return err
		}
	}
	return nil
}
