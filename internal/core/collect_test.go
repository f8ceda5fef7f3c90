package core

import (
	"testing"

	"opendrc/internal/rules"
)

// TestShardTableMergeOrder pins the determinism argument: shards merge in
// index order regardless of which "worker" filled them first.
func TestShardTableMergeOrder(t *testing.T) {
	tbl := make(shardTable, 3)
	// Fill out of order, as a racing fan-out would.
	tbl[2].vs = append(tbl[2].vs, rules.Violation{Rule: "c"})
	tbl[0].vs = append(tbl[0].vs, rules.Violation{Rule: "a"})
	tbl[1].vs = append(tbl[1].vs, rules.Violation{Rule: "b"})
	tbl[1].stats.PairsChecked = 7

	var rep Report
	tbl.mergeViolations(&rep)
	if len(rep.Violations) != 3 {
		t.Fatalf("merged %d violations, want 3", len(rep.Violations))
	}
	for i, want := range []string{"a", "b", "c"} {
		if rep.Violations[i].Rule != want {
			t.Errorf("violation %d = %q, want %q", i, rep.Violations[i].Rule, want)
		}
	}
	if rep.Stats.PairsChecked != 7 {
		t.Errorf("stats not merged: PairsChecked = %d", rep.Stats.PairsChecked)
	}
}
