package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"opendrc/internal/synth"
)

func TestRunTableConsistency(t *testing.T) {
	lts, err := Layouts(0.3)
	if err != nil {
		t.Fatal(err)
	}
	// One spacing rule over all designs and all six checkers.
	tbl, err := RunContext(context.Background(), "test", lts, []string{"M2.S.1"})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Mismatches != 0 {
		t.Fatalf("checkers disagree on %d rows", tbl.Mismatches)
	}
	if len(tbl.Rows) != len(DesignNames()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for c := KLayoutFlat; c <= OpenDRCPar; c++ {
		if tbl.GeoMeanRel[c] <= 0 {
			t.Errorf("%s: geo-mean missing", c)
		}
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"KL-flat", "X-Check", "ODRC-par", "geo-mean", "mismatches: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCellUnsupported(t *testing.T) {
	lts, err := Layouts(0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.RuleByID("M1.A.1")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := RunCellContext(context.Background(), lts["uart"], r, XCheck)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Supported {
		t.Error("X-Check must not support area checks (the paper's empty column)")
	}
}

func TestFig3Trace(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Sweep order is descending y, so A (top 16) discovers the earlier
	// inserted B (top 20), and C (top 12) discovers D (top 14).
	if !strings.Contains(out, "overlaps=[B]") {
		t.Errorf("A must report overlap with B:\n%s", out)
	}
	if !strings.Contains(out, "overlaps=[D]") {
		t.Errorf("C must report overlap with D:\n%s", out)
	}
	if strings.Count(out, "TOP") != 5 || strings.Count(out, "BOT") != 5 {
		t.Errorf("trace must contain 5 insertions and 5 removals:\n%s", out)
	}
}

func TestFig4Breakdown(t *testing.T) {
	lts, err := Layouts(0.3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig4Context(context.Background(), lts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DesignNames()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.Partition + r.Sweepline + r.EdgeCheck + r.Other
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: fractions sum to %g", r.Design, sum)
		}
		if r.Total <= 0 {
			t.Errorf("%s: zero total", r.Design)
		}
		// The paper's qualitative shape: the partition is the smallest of
		// the three phases.
		if r.Partition > r.Sweepline+r.EdgeCheck {
			t.Errorf("%s: partition dominates (%.0f%%) — breakdown shape broken",
				r.Design, r.Partition*100)
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, rows)
	if !strings.Contains(buf.String(), "partition") {
		t.Error("rendered breakdown missing header")
	}
}

func TestBreakdownProfile(t *testing.T) {
	lts, err := Layouts(0.2)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BreakdownProfileContext(context.Background(), lts["uart"], "M1.S.1")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total() <= 0 {
		t.Error("empty profile")
	}
	if _, err := BreakdownProfileContext(context.Background(), lts["uart"], "NOPE"); err == nil {
		t.Error("unknown rule accepted")
	}
}

// TestAblations runs the ablation pairs: three of them, each of whose two
// sides finds the same thing.
func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	abs, err := AblationsContext(context.Background(), &buf, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 3 {
		t.Fatalf("%d ablation pairs, want 3:\n%s", len(abs), buf.String())
	}
	for _, ab := range abs {
		if ab.CountA != ab.CountB || ab.CountA == 0 {
			t.Errorf("%s: %s found %d, %s found %d", ab.Choice, ab.A, ab.CountA, ab.B, ab.CountB)
		}
		if !strings.Contains(buf.String(), ab.Choice) {
			t.Errorf("output misses %q:\n%s", ab.Choice, buf.String())
		}
	}
}
