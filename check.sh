#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, the
# odrc-lint invariant suite (its seven checks, DESIGN.md §5: deterministic
# map iteration, clock discipline, pool-only concurrency, no caller-slice
# mutation, immutable cached buffers, context arguments derived from a ctx
# parameter or a request's context, mutex-guarded fields), the full test
# suite under the race detector (the worker-pool fan-out makes -race part of
# tier-1 verification; the chaos and cancellation suites run here too), the
# scheduler's tests ten more times under it, a 2 000-cycle session soak, the
# nested benchmark module's
# own tests, one full-size traced batch_par pass and
# one serve_edit pass of the end-to-end benchmark, a short fuzz smoke over
# the GDSII reader (differentially, against the streaming reference reader),
# the polygon/transform algebra, the indexed hierarchy query, the layout build,
# interleaved session operations (edit / check / delta check against a cold
# batch model), the report encoder (both JSON forms against encoding/json),
# the sweepline executor (against its reference bodies), the rule-deck
# file format (a written deck parses back to the same rules) and the
# sequential sweepline (against brute-force pairs), a bench smoke
# of the unit benchmarks, the one timing gate that
# has no test or benchmark/ counterpart (cross-tenant fairness), the
# canonical-report digest matrix against BENCH_digests.json, a traced
# parallel run and a traced sequential run validated structurally, and an
# end-to-end smoke of the odrcd service over
# real HTTP. Speed is judged by benchmark/ (BENCHMARK.json); identity across
# worker counts, cache on/off and delta vs cold is pinned by go test
# (DESIGN.md, "Retired gates").
set -e
start=$(date +%s)

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go run ./cmd/odrc-lint
go test -race ./...
# The scheduler's park and wake paths, ten times over: one -race pass rarely
# hits the interleavings where a yield parks or wakes.
go test -race -count=10 -run 'Sched|Yield' ./internal/pool ./internal/server

# The 2 000-cycle session soak (30–40 s; tier-1 skips it): edits, delta
# and plain checks against cold ones, one InvalidateAll, a bounded live heap,
# no instance records in the geometry cache, no goroutine left behind.
ODRC_SOAK=1 go test -run '^TestSessionSoak$' -timeout 600s ./internal/core

# The end-to-end benchmark is a nested module the line above neither compiles
# nor runs, and its probes call engine functions directly (kernels, gpu,
# geocache, pool, core.Session): its smoke is what notices one of those
# signatures changing.
go test -C benchmark ./...

# One full-size traced batch_par pass (about 45 s). The module's own smoke
# runs at scale 0.3, where every M1 row takes the brute executor, so the
# probe's sweep side and its engineSplit guard (the probe's executor split
# must equal the engine's) would otherwise first run in the benchmark
# itself. Exits nonzero on a failed op or an incorrect report.
bash benchmark/run.sh --workload batch_par --seed 7 --trace 1
# One full-size traced serve_edit pass: edit → delta-check cycles, whose
# restricted rules query their work window and patch nothing, and every
# tenth cycle's plain full check, which applies the edits' deferred region
# patch, segmented at the reach of the rules reading each layer, and uploads
# each patched layer's buffer again whole; only the benchmark runs that path
# at full size.
bash benchmark/run.sh --workload serve_edit --seed 7 --trace 1

# Fuzz smoke: ten seconds per target. Regressions found by longer fuzz runs
# land as corpus files under testdata/fuzz/, which plain `go test` replays.
go test -run=NONE -fuzz=FuzzReadLibrary -fuzztime=10s ./internal/gdsii
go test -run=NONE -fuzz=FuzzPolygonTransform -fuzztime=10s ./internal/geom
go test -run=NONE -fuzz=FuzzQueryLayer -fuzztime=10s ./internal/layout
go test -run=NONE -fuzz=FuzzBuildLayout -fuzztime=10s ./internal/layout
# One FuzzSessionOps execution is tens of checks, so the engine's default
# 60 s budget for minimising each coverage-expanding input would eat the whole
# smoke; twenty executions per input keep it fuzzing.
go test -run=NONE -fuzz=FuzzSessionOps -fuzztime=10s -fuzzminimizetime=20x ./internal/core
# Report inputs grow long, and minimising one for the default 60 s stalls the
# smoke just the same.
go test -run=NONE -fuzz=FuzzReportJSON -fuzztime=10s -fuzzminimizetime=200x ./internal/core
# The sweepline executor against its reference bodies (hits in order, every
# kernel record); one execution simulates both twelve times, so minimising
# is bounded here too.
go test -run=NONE -fuzz=FuzzSweepMatchesReference -fuzztime=10s -fuzzminimizetime=100x ./internal/kernels
go test -run=NONE -fuzz=FuzzDeckFile -fuzztime=10s ./internal/rules
go test -run=NONE -fuzz=FuzzOverlaps -fuzztime=10s ./internal/sweep

# Bench smoke: one iteration of the geometry-cache unit benchmarks, of one
# sweepline-executor row, of the hierarchy range queries, of the ingest path,
# of the edit → delta-check cycle and of a warm session check executed and
# replayed, so a change that breaks flatten/pack or
# the row simulation off the engine path still fails the gate (the pack
# benchmark prints host_B/edge, about 16 for the one point per vertex, where a
# per-edge column creeping back into the host layout shows; the row
# benchmark prints its modeled_us, where a cost-model drift shows, and
# window_ops/visited, where a sweep that stopped using its candidate index shows;
# narrow-window prints nodes_pruned per query, where a fall back to the linear
# walk shows; ingest prints MB/s and allocs/op, where a per-element allocation
# creeping back shows; the edit cycle prints ms/cycle, MB/cycle and
# patches/cycle, where an M1 sliver costing the layer instead of its work
# window shows — ~0.3–0.4 ms / 0.27 MB and 0 patches on ethmac@2.5, where a
# patch of the M1 record alone costs 1.4–5 ms; the warm check prints ns/op, allocs/op,
# modeled_us and launches for both ways of answering it, where a replay that
# drops a launch, or costs what an execution costs, shows; the replayed
# request — replay, dedup, canonical encode — prints bytes and allocs/op,
# where an encoder falling back to reflection shows).
go test -run=NONE -bench 'BenchmarkFlattenLayer|BenchmarkPack|BenchmarkSpacingSweepRow|BenchmarkBVHAblation|BenchmarkIngest|BenchmarkEditCycle|BenchmarkWarmCheck|BenchmarkReplayedRequest' -benchtime=1x .

# The remaining odrc-bench invocations share one build instead of paying a
# `go run` link each; its scratch directory also takes the trace export, so
# the only file this script leaves in the worktree is BENCH_fair.json.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/odrc-bench" ./cmd/odrc-bench

# Fairness gate: the cross-tenant scheduling experiment. A light tenant's
# closed-loop checks are measured against six saturating co-tenant streams:
# every row's reports must be byte-identical to the unloaded solo run, the
# co-tenant must stay saturated, and the equal-weight fair policy must
# improve the light tenant's p95 at least 2x over the FIFO baseline. Scale 3
# makes a light check span several OS scheduling quanta — smaller checks
# finish inside one quantum and cannot observe queueing policy at all. The
# JSON is written before gating, so a failed gate still leaves it for
# inspection (CI uploads it).
"$tmp/odrc-bench" -fairness -scale 3 -out BENCH_fair.json -gate

# Canonical-report digests: every design in both modes at several worker
# counts (ethmac at scales 4 and 2.5 too), each row's canonical report hashed
# and its rules counted, against the committed BENCH_digests.json. A mismatch
# names the first differing row and rule. A change that means to move a
# report regenerates the file (-digests -out BENCH_digests.json) and says why.
"$tmp/odrc-bench" -digests -gate

# Trace smoke: one traced full-deck run at reduced scale, then a structural
# validation of the exported Chrome-trace JSON (required processes, paired
# flows, well-formed events). Catches export regressions off the test path;
# the schema itself is held by TestTraceExportValidates.
"$tmp/odrc-bench" -trace "$tmp/trace.json" -scale 0.1
"$tmp/odrc-bench" -validate-trace "$tmp/trace.json"
# The same for a sequential run, whose rules run side by side: its rule track
# holds overlapping spans, which the export must still render and validate.
"$tmp/odrc-bench" -trace "$tmp/trace-seq.json" -trace-mode seq -scale 0.1
"$tmp/odrc-bench" -validate-trace "$tmp/trace-seq.json"

# Service smoke: start odrcd on an ephemeral port, load a generated GDS as a
# resident session, run full-deck and single-rule checks over HTTP, and
# require every response byte-identical to `odrc -canon`; then a goroutine
# steady-state check and a clean SIGTERM drain.
./smoke_odrcd.sh

echo "check.sh: all green in $(($(date +%s) - start)) s"
