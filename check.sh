#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, the
# odrc-lint invariant suite (determinism, clock discipline, pool-only
# concurrency, no caller-slice mutation), the full test suite under the
# race detector (the worker-pool fan-out makes -race part of tier-1
# verification; the chaos and cancellation suites run here too), the nested
# benchmark module's own tests, a short fuzz smoke over the GDSII reader
# (differentially, against the streaming reference reader), the
# polygon/transform algebra, the indexed hierarchy query, the layout build and
# interleaved session operations (edit / check / delta check against a cold
# batch model), and an end-to-end smoke of the odrcd service over real HTTP.
set -e

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go run ./cmd/odrc-lint
go test -race ./...

# The end-to-end benchmark is a nested module the line above neither compiles
# nor runs, and its probes call engine functions directly (kernels, gpu,
# geocache, pool, core.Session): its smoke is what notices one of those
# signatures changing.
go test -C benchmark ./...

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

# Bench smoke: one iteration of the geometry-cache unit benchmarks, of one
# sweepline-executor row, of the hierarchy range queries, of the ingest path
# and of the edit → delta-check cycle, so a change that breaks flatten/pack or
# the row simulation off the engine path still fails the gate (the row
# benchmark prints its modeled_us, where a cost-model drift shows;
# narrow-window prints nodes_pruned per query, where a fall back to the linear
# walk shows; ingest prints MB/s and allocs/op, where a per-element allocation
# creeping back shows; the edit cycle prints ms/cycle and MB/cycle, where an
# M1 sliver costing the layer instead of its row shows — 18 ms / 6 MB patched,
# 180 ms / 115 MB re-derived).
go test -run=NONE -bench 'BenchmarkFlattenLayer|BenchmarkPack|BenchmarkSpacingSweepRow|BenchmarkBVHAblation|BenchmarkIngest|BenchmarkEditCycle' -benchtime=1x .

# Bench gate: regenerate the speedup and reuse experiments with the
# regression gate on — any row with a ratio below 1.0 or mismatched reports
# between configurations fails the build. Best-of-interleaved runs keep the
# gate robust to scheduler noise, rows whose two sides both finish under the
# shared 10 ms noise floor gate on report identity only, and a single-CPU host
# gets one report-level degenerate_config note instead of rows. The JSON
# artifacts are written before gating, so a failed gate still leaves them
# for inspection (CI uploads them).
#
# Speedup runs at scale 0.3, where every row is under the floor on a small
# host: what it enforces there is reports_identical across worker counts. Two
# workers on two cores measure 0.95–1.13x on most rows at every scale from 1
# to 4 (EXPERIMENTS.md), so no scale makes a 1.0 threshold on that ratio
# stable here. Reuse runs at scale 1 with 25 runs a side: nine or ten of its
# twelve rows clear the floor, and best-of-25 resolves the sequential rows'
# ~1.05x from 1.0 (ten of ten repeats; best-of-15 read 0.998x once in
# sixteen, best-of-5 0.99x about one run in ten).
go run ./cmd/odrc-bench -speedup -runs 5 -scale 0.3 -out BENCH_workers.json -gate
go run ./cmd/odrc-bench -reuse -runs 25 -scale 1 -out BENCH_reuse.json -gate

# Delta gate: the incremental re-check experiment. Every row cross-checks
# the delta report byte-for-byte against a cold full check of the edited
# design (reports_identical), requires the incremental plan (no fallback),
# and the smallest edit fraction must beat the full re-check it replaces.
# Scale 2 puts the sha3 and aes rows (four of the six speed-gated ones) above
# the noise floor.
go run ./cmd/odrc-bench -delta -runs 3 -scale 2 -out BENCH_delta.json -gate

# Fairness gate: the cross-tenant scheduling experiment. A light tenant's
# closed-loop checks are measured against six saturating co-tenant streams:
# every row's reports must be byte-identical to the unloaded solo run, the
# co-tenant must stay saturated, and the equal-weight fair policy must
# improve the light tenant's p95 at least 2x over the FIFO baseline. Scale 3
# makes a light check span several OS scheduling quanta — smaller checks
# finish inside one quantum and cannot observe queueing policy at all.
go run ./cmd/odrc-bench -fairness -scale 3 -out BENCH_fair.json -gate

# Trace smoke: one traced full-deck run at reduced scale, then a structural
# validation of the exported Chrome-trace JSON (required processes, paired
# flows, well-formed events). Catches export regressions off the test path.
go run ./cmd/odrc-bench -trace BENCH_trace.json -scale 0.1
go run ./cmd/odrc-bench -validate-trace BENCH_trace.json

# Service smoke: start odrcd on an ephemeral port, load a generated GDS as a
# resident session, run full-deck and single-rule checks over HTTP, and
# require every response byte-identical to `odrc -canon`; then a goroutine
# steady-state check and a clean SIGTERM drain.
./smoke_odrcd.sh

echo "check.sh: all green"
