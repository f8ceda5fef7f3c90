package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"opendrc/internal/budget"
	"opendrc/internal/faults"
	"opendrc/internal/geom"
	"opendrc/internal/layout"
	"opendrc/internal/rules"
	"opendrc/internal/synth"
)

func TestReportJSON(t *testing.T) {
	lo, exp := loadDesign(t, "uart", 1)
	rep := runEngine(t, lo, Options{Mode: Sequential}, synth.Deck())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Mode        string         `json:"mode"`
		Violations  []any          `json:"violations"`
		CountByRule map[string]int `json:"count_by_rule"`
		HostWallUS  int64          `json:"host_wall_us"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Mode != "sequential" {
		t.Errorf("mode = %q", decoded.Mode)
	}
	if len(decoded.Violations) != len(rep.Violations) {
		t.Errorf("violations = %d, want %d", len(decoded.Violations), len(rep.Violations))
	}
	if exp.Total > 0 && len(decoded.Violations) == 0 {
		t.Error("expected violations in JSON output")
	}
	if decoded.HostWallUS <= 0 {
		t.Error("host wall time missing")
	}
}

func TestReportText(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 1)
	deck := synth.Deck()
	rep := runEngine(t, lo, Options{Mode: Sequential}, deck)
	var buf bytes.Buffer
	if err := rep.WriteText(&buf, deck); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"violations in", "M1.W.1", "V1.M1.EN.1", "sequential mode"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestCanonicalJSON pins the canonical form: no timing, no stats, and a
// degraded budget failure carries the structured budget object — while the
// violations and counts match the full form.
func TestCanonicalJSON(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 1)
	rep := runEngine(t, lo,
		Options{Mode: Parallel, Budgets: budget.Limits{MaxFlattenPolys: 1}}, synth.Deck())
	if !rep.Degraded {
		t.Fatal("1-poly flatten budget did not degrade the run")
	}
	var buf bytes.Buffer
	if err := rep.WriteCanonicalJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, forbidden := range []string{"host_wall_us", "modeled_us", "\"stats\""} {
		if strings.Contains(out, forbidden) {
			t.Errorf("canonical form leaks %q:\n%s", forbidden, out)
		}
	}
	var decoded struct {
		Mode     string `json:"mode"`
		Degraded bool   `json:"degraded"`
		Failures []struct {
			Rule   string `json:"rule"`
			Budget *struct {
				Resource string `json:"resource"`
				Limit    int64  `json:"limit"`
				Used     int64  `json:"used"`
			} `json:"budget"`
		} `json:"failures"`
		Violations  []any          `json:"violations"`
		CountByRule map[string]int `json:"count_by_rule"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if !decoded.Degraded || len(decoded.Failures) == 0 {
		t.Fatalf("degradation missing from canonical form:\n%s", out)
	}
	f := decoded.Failures[0]
	if f.Budget == nil || f.Budget.Resource != "flatten-polys" || f.Budget.Limit != 1 || f.Budget.Used <= 1 {
		t.Fatalf("structured budget missing or wrong: %+v", f)
	}
	if len(decoded.Violations) != len(rep.Violations) {
		t.Errorf("violations = %d, want %d", len(decoded.Violations), len(rep.Violations))
	}
}

// sameAsReference renders r through both forms of the encoder and of the
// encoding/json reference (reportio_reference_test.go) and fails on any byte
// of difference.
func sameAsReference(t *testing.T, r *Report) {
	t.Helper()
	for _, form := range []struct {
		name      string
		got, want func(io.Writer) error
	}{
		{"WriteJSON", r.WriteJSON, func(w io.Writer) error { return refWriteJSON(r, w) }},
		{"WriteCanonicalJSON", r.WriteCanonicalJSON, func(w io.Writer) error { return refWriteCanonicalJSON(r, w) }},
	} {
		var got, want bytes.Buffer
		if err := form.want(&want); err != nil {
			t.Fatalf("%s reference: %v", form.name, err)
		}
		if err := form.got(&got); err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s differs from encoding/json:\ngot  %q\nwant %q", form.name, got.Bytes(), want.Bytes())
		}
	}
	prefix := []byte("prefix")
	if got := r.AppendCanonicalJSON(prefix); !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendCanonicalJSON lost the buffer's contents: %q", got)
	}
}

// fuzzStrings are what a fuzz report's rule IDs, cells, failure texts and
// budget resources are drawn from, besides raw input bytes: plain IDs, the
// five characters encoding/json escapes by default, its short escapes, other
// control bytes and DEL, the two JavaScript line terminators, non-ASCII and
// invalid UTF-8.
var fuzzStrings = [...]string{
	"", "M1.S.1", "M2.W.1", "V1.M1.EN.1", "cell_7",
	"a<b>&c", `q"uote\back`, "\b\f\n\r\t", "\x00\x01\x1b\x1f\x7f",
	"\u2028 \u2029", "héllo, 日本", "\xff\xfe\xc3(",
}

// fuzzReader decodes a fuzz input into report fields. Every input decodes;
// an exhausted input reads as zeros.
type fuzzReader struct{ data []byte }

func (in *fuzzReader) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// int reads a tag byte, then: an int8, a big-endian int16, or a value within
// 255 of the int64 minimum or maximum.
func (in *fuzzReader) int() int64 {
	switch in.byte() % 4 {
	case 0:
		return int64(int8(in.byte()))
	case 1:
		return int64(int16(uint16(in.byte())<<8 | uint16(in.byte())))
	case 2:
		return math.MinInt64 + int64(in.byte())
	}
	return math.MaxInt64 - int64(in.byte())
}

// str reads a tag byte: below 0x80 it picks from fuzzStrings, otherwise its
// low six bits are the length of a raw string that follows.
func (in *fuzzReader) str() string {
	tag := in.byte()
	if tag < 0x80 {
		return fuzzStrings[int(tag)%len(fuzzStrings)]
	}
	n := min(int(tag&0x3f), len(in.data))
	s := string(in.data[:n])
	in.data = in.data[n:]
	return s
}

// fuzzReport decodes a Report: a flags byte (parallel, degraded, an empty
// rather than nil violation slice, a trace summary), the two timings and
// three Stats counters, up to three failures, then violations until the
// input ends — in whatever order, with whatever duplicate rule IDs, the
// input gives.
func fuzzReport(data []byte) *Report {
	in := &fuzzReader{data}
	flags := in.byte()
	r := &Report{Degraded: flags&2 != 0}
	if flags&1 != 0 {
		r.Mode = Parallel
	}
	if flags&4 != 0 {
		r.Violations = []rules.Violation{}
	}
	if flags&8 != 0 {
		r.Stats.Trace = &TraceSummary{ModeledUS: 1}
	}
	r.HostWall, r.Modeled = time.Duration(in.int()), time.Duration(in.int())
	r.Stats.DefsChecked, r.Stats.PairsChecked, r.Stats.BytesCopied = int(in.int()), int(in.int()), in.int()
	for n := in.byte() % 4; n > 0; n-- {
		f := RuleFailure{Rule: in.str(), Err: in.str(), Stack: "never rendered"}
		fb := in.byte()
		f.Panicked, f.BudgetExceeded = fb&1 != 0, fb&2 != 0
		if fb&4 != 0 {
			f.Budget = &budget.Error{Resource: in.str(), Limit: in.int(), Used: in.int()}
		}
		r.Failures = append(r.Failures, f)
	}
	for len(in.data) > 0 {
		v := rules.Violation{Rule: in.str(), Kind: rules.Kind(in.byte() % 10), Layer: layout.Layer(in.int())}
		v.Marker.Box = geom.Rect{XLo: in.int(), YLo: in.int(), XHi: in.int(), YHi: in.int()}
		v.Marker.Dist = in.int()
		v.Marker.Corner = in.byte()&1 != 0
		v.Cell = in.str()
		r.Violations = append(r.Violations, v)
	}
	return r
}

// FuzzReportJSON holds both report forms to the encoding/json reference on
// generated reports (fuzzReport).
func FuzzReportJSON(f *testing.F) {
	raw := func(s string) []byte { return append([]byte{0x80 | byte(len(s))}, s...) }
	i8 := func(v int8) []byte { return []byte{0, byte(v)} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// A violation: rule, kind, layer, box, dist, corner, cell.
	viol := func(rule byte, kind byte, x int8, corner byte, cell []byte) []byte {
		return cat([]byte{rule, kind}, i8(1), i8(x), i8(-x), i8(x+4), i8(4-x), i8(3), []byte{corner}, cell)
	}
	f.Add([]byte{})                                                     // nothing: nil violations, no failures
	f.Add(cat([]byte{4}, i8(0), i8(0), i8(0), i8(0), i8(0), []byte{0})) // empty, non-nil violations
	// Canonical order: one rule's run, then another's, an empty Cell.
	f.Add(cat([]byte{1}, i8(9), i8(5), i8(1), i8(2), i8(3), []byte{0},
		viol(1, 1, -5, 0, []byte{0}), viol(1, 1, 7, 1, []byte{4}), viol(2, 0, 1, 0, []byte{4})))
	// Degraded parallel: a panicked failure, a budget trip with its budget,
	// a budget without the flag; escapes in every string.
	f.Add(cat([]byte{3 | 8}, i8(100), i8(50), []byte{2, 0}, []byte{3, 0xff}, i8(0), []byte{3},
		[]byte{5, 7, 1},
		[]byte{6, 8, 6, 9}, []byte{1, 7}, []byte{3, 3},
		[]byte{10, 11, 2},
		viol(5, 5, 2, 1, []byte{10}), viol(9, 8, 3, 0, []byte{11})))
	// Unsorted input with duplicate rule IDs, extreme coordinates, kinds
	// past the named ones.
	f.Add(cat([]byte{0}, i8(0), i8(0), i8(0), i8(0), i8(0), []byte{0},
		viol(3, 9, 1, 0, []byte{0}), viol(1, 2, 2, 0, []byte{0}), viol(3, 3, -3, 0, []byte{4}),
		[]byte{2, 1}, []byte{2, 7}, []byte{3, 0}, []byte{2, 0}, []byte{3, 0}, []byte{2, 0}, []byte{2, 0}, []byte{1, 0}, raw("c")))
	// Raw strings: control bytes, U+2028, a lone continuation byte, HTML.
	f.Add(cat([]byte{2}, i8(0), i8(0), i8(0), i8(0), i8(0), []byte{1},
		raw("r\x02\u2028"), raw("e\x80</script>"), []byte{4}, raw("res&"), i8(-1), i8(1),
		raw("M\x7f.\t1"), []byte{0}, i8(-128), i8(0), i8(0), i8(0), i8(0), i8(0), []byte{0}, raw("\xe2\x80")))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsReference(t, fuzzReport(data))
	})
}

// TestReportJSONMatchesReference: real reports — both modes, a replayed
// session check, degraded by injected panics and by a budget trip — render
// exactly as through encoding/json.
func TestReportJSONMatchesReference(t *testing.T) {
	lo, _ := loadDesign(t, "uart", 0.5)
	deck := synth.Deck()
	for _, mode := range []Mode{Sequential, Parallel} {
		sameAsReference(t, runEngine(t, lo, Options{Mode: mode}, deck))
		inj := faults.New(7, faults.Injection{Site: faults.SiteRule, Rate: 3, Mode: faults.Panic})
		if rep := runEngine(t, lo, Options{Mode: mode, Faults: inj}, deck); !rep.Degraded || !rep.Failures[0].Panicked {
			t.Fatalf("%v: injected panics did not degrade the run: %+v", mode, rep.Failures)
		} else {
			sameAsReference(t, rep)
		}
		ses := NewSession(lo, Options{Mode: mode})
		for range 2 {
			rep, err := ses.Check(context.Background(), deck)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, rep)
		}
		ses.Close(context.Background())
	}
	rep := runEngine(t, lo, Options{Mode: Parallel, Budgets: budget.Limits{MaxFlattenPolys: 1}}, deck)
	if !rep.Degraded || rep.Failures[0].Budget == nil {
		t.Fatalf("the budget did not trip: %+v", rep.Failures)
	}
	sameAsReference(t, rep)
}
