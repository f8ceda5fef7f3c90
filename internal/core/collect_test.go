package core

import (
	"testing"

	"opendrc/internal/checks"
	"opendrc/internal/freelist"
	"opendrc/internal/geom"
	"opendrc/internal/rules"
)

// TestShardTableMergeOrder pins the determinism argument: shards merge in
// index order regardless of which "worker" filled them first.
func TestShardTableMergeOrder(t *testing.T) {
	var pool freelist.List[*shardTable]
	tbl := takeShards(&pool, 3)
	// Fill out of order, as a racing fan-out would.
	tbl.s[2].vs = append(tbl.s[2].vs, rules.Violation{Rule: "c"})
	tbl.s[0].vs = append(tbl.s[0].vs, rules.Violation{Rule: "a"})
	tbl.s[1].vs = append(tbl.s[1].vs, rules.Violation{Rule: "b"})
	tbl.s[1].stats.PairsChecked = 7

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

// TestShardTableReuse verifies recycled tables come back empty but keep
// their grown buffers, and that growing a table preserves the buffers of
// the shards it already had.
func TestShardTableReuse(t *testing.T) {
	var pool freelist.List[*shardTable]
	tbl := takeShards(&pool, 2)
	for i := 0; i < 40; i++ {
		tbl.s[0].vs = append(tbl.s[0].vs, rules.Violation{})
		tbl.s[1].markers = append(tbl.s[1].markers, checks.Marker{})
	}
	tbl.discard()

	tbl = takeShards(&pool, 4) // grow past the previous size
	for i := range tbl.s {
		if len(tbl.s[i].vs) != 0 || len(tbl.s[i].markers) != 0 {
			t.Fatalf("shard %d not reset: %d violations, %d markers",
				i, len(tbl.s[i].vs), len(tbl.s[i].markers))
		}
	}
	tbl.discard()
}

// TestShardTableAllocsSteadyState is the regression gate for allocation-free
// violation collection: once warm, a fan-out-sized get/append/merge cycle
// performs no shard-side allocations (the only growth is the report's own
// violation slice, preallocated here).
func TestShardTableAllocsSteadyState(t *testing.T) {
	const n = 16
	var pool freelist.List[*shardTable]
	warm := takeShards(&pool, n)
	for i := range warm.s {
		for k := 0; k < 8; k++ {
			warm.s[i].vs = append(warm.s[i].vs, rules.Violation{})
			warm.s[i].markers = append(warm.s[i].markers, checks.Marker{})
		}
	}
	warm.discard()

	rep := &Report{Violations: make([]rules.Violation, 0, 4*n*8)}
	m := checks.Marker{Box: geom.Rect{XLo: 1, YLo: 2, XHi: 3, YHi: 4}}
	allocs := testing.AllocsPerRun(50, func() {
		rep.Violations = rep.Violations[:0]
		rep.Stats = Stats{}
		tbl := takeShards(&pool, n)
		for i := range tbl.s {
			for k := 0; k < 8; k++ {
				tbl.s[i].vs = append(tbl.s[i].vs, rules.Violation{Marker: m})
				tbl.s[i].stats.PairsChecked++
			}
		}
		tbl.mergeViolations(rep)
	})
	if allocs > 0 {
		t.Errorf("steady-state shard cycle allocs = %v, want 0", allocs)
	}
}
