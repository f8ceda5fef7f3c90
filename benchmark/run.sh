#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout) and runs it from the repository root. The harness builds odrc
# and odrcd itself.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/bin
export GOCACHE="$PWD/.bench_build/gocache"
go build -C benchmark -o ../.bench_build/bin/odrc-e2e .
exec .bench_build/bin/odrc-e2e "$@"
