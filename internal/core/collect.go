package core

import (
	"opendrc/internal/checks"
	"opendrc/internal/gpu"
	"opendrc/internal/rules"
)

// Violation collection for the fan-out paths. Workers never share an output
// slice: each index of a fan-out owns one shard and appends to it without
// synchronization, and the shards merge into the report in index order — the
// same order a single worker would have produced, so the report is
// bit-identical for every worker count. A failed fan-out drops its table
// unmerged: a failed rule contributes nothing, keeping degraded reports
// independent of which worker got how far.

// shard is one index-owned output slot of a fan-out: violations (intra
// rules, parallel-mode sweep rows), markers (spacing rows, still in the
// cell's local frame), a stats delta, and — for a sweep row simulated off
// the check stream — the tape of its evaluated launches.
type shard struct {
	vs      []rules.Violation
	markers []checks.Marker
	stats   Stats
	tape    gpu.Tape
}

// shardTable is one fan-out's output slots, one per index.
type shardTable []shard

// mergeViolations appends every shard's violations and stats to the report
// in shard-index order.
func (t shardTable) mergeViolations(rep *Report) {
	for i := range t {
		rep.Violations = append(rep.Violations, t[i].vs...)
		rep.Stats.add(t[i].stats)
	}
}

// mergeMarkers appends every shard's markers to dst in shard-index order,
// accumulates the stats into the report, and returns the grown dst.
func (t shardTable) mergeMarkers(dst []checks.Marker, rep *Report) []checks.Marker {
	for i := range t {
		dst = append(dst, t[i].markers...)
		rep.Stats.add(t[i].stats)
	}
	return dst
}
