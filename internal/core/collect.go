package core

import (
	"opendrc/internal/checks"
	"opendrc/internal/freelist"
	"opendrc/internal/gpu"
	"opendrc/internal/rules"
)

// Violation collection for the fan-out paths. Workers never share an output
// slice: each index of a fan-out owns one shard and appends to it without
// synchronization, and the shards merge into the report in index order — the
// same order a single worker would have produced, so the report is
// bit-identical for every worker count. The shard tables themselves recycle
// through the engine's freelist: the steady state is one warm table per
// concurrently-live fan-out (one per rule running side by side) and zero
// per-rule slot allocations.

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

// shardTable is a recycled slice of shards, tied to the freelist it came
// from.
type shardTable struct {
	free *freelist.List[*shardTable]
	s    []shard
}

// takeShards returns a table of n empty shards from l. Backing arrays — the
// table and each shard's violation and marker buffers — are recycled, so
// warm tables hand out capacity without allocating.
func takeShards(l *freelist.List[*shardTable], n int) *shardTable {
	t := l.Get()
	if t == nil {
		t = &shardTable{free: l}
	}
	if cap(t.s) < n {
		grown := make([]shard, n)
		copy(grown, t.s[:cap(t.s)])
		t.s = grown
	}
	t.s = t.s[:n]
	for i := range t.s {
		t.s[i].vs = t.s[i].vs[:0]
		t.s[i].markers = t.s[i].markers[:0]
		t.s[i].stats = Stats{}
	}
	return t
}

// discard recycles the table without merging — the fan-out failed and a
// failed rule contributes nothing, keeping degraded reports independent of
// which worker got how far.
func (t *shardTable) discard() { t.free.Put(t) }

// mergeViolations appends every shard's violations and stats to the report
// in shard-index order, then recycles the table. Appending copies the
// violation values, so recycling the shard buffers cannot alias the report.
func (t *shardTable) mergeViolations(rep *Report) {
	for i := range t.s {
		rep.Violations = append(rep.Violations, t.s[i].vs...)
		rep.Stats.add(t.s[i].stats)
	}
	t.free.Put(t)
}

// mergeMarkers appends every shard's markers to dst in shard-index order,
// accumulates the stats into the report, recycles the table, and returns the
// grown dst.
func (t *shardTable) mergeMarkers(dst []checks.Marker, rep *Report) []checks.Marker {
	for i := range t.s {
		dst = append(dst, t.s[i].markers...)
		rep.Stats.add(t.s[i].stats)
	}
	t.free.Put(t)
	return dst
}
