#!/bin/sh
# smoke_odrcd.sh — end-to-end smoke of the odrcd service over real HTTP:
# build the daemon and the batch CLI, generate a benchmark GDS, load it as a
# resident session, run cold/warm full-deck checks and a warm single-rule
# check via curl, and require every response body byte-identical to
# `odrc -canon` on the same file — the warm one answered entirely from the
# session's rule records. Then verify the daemon sheds no goroutines
# while idle and drains cleanly on SIGTERM (exit 0). check.sh runs it at
# scale 0.2; CI re-runs it at its own scale via the SCALE env var.
set -e

SCALE="${SCALE:-0.2}"
RULE="${RULE:-M2.S.1}"
tmp="$(mktemp -d)"
pid=""
cleanup() {
	status=$?
	if [ -n "$pid" ]; then
		kill "$pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
	exit "$status"
}
trap cleanup EXIT

go build -o "$tmp/odrc" ./cmd/odrc
go build -o "$tmp/odrcd" ./cmd/odrcd
go run ./cmd/odrc-gen -design uart -scale "$SCALE" -o "$tmp/uart.gds"

"$tmp/odrc" -canon -mode par "$tmp/uart.gds" >"$tmp/batch_full.json"
"$tmp/odrc" -canon -mode par -rule "$RULE" "$tmp/uart.gds" >"$tmp/batch_one.json"

"$tmp/odrcd" -addr 127.0.0.1:0 -ready-file "$tmp/addr" -quiet &
pid=$!
i=0
while [ ! -s "$tmp/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "smoke_odrcd: daemon never wrote its ready file" >&2
		exit 1
	fi
	sleep 0.1
done
base="http://$(cat "$tmp/addr" | tr -d '\n')"

curl -fsS "$base/healthz" >/dev/null
g0="$(curl -fsS "$base/debug/goroutines" | jq .goroutines)"

deck="$(curl -fsS -X POST "$base/v1/sessions" \
	-d "{\"id\":\"uart\",\"gds\":\"$tmp/uart.gds\"}" | jq .rules)"
curl -fsS -X POST "$base/v1/sessions/uart/check" -d '{}' >"$tmp/http_cold.json"
curl -fsS -X POST "$base/v1/sessions/uart/check" -d '{}' >"$tmp/http_warm.json"
# The warm check replayed every rule the cold one executed (and still has to
# cmp equal to batch below).
stats="$(curl -fsS "$base/v1/sessions/uart/stats")"
for want in ".stats.rules_executed == $deck" ".stats.rules_replayed == $deck" '.stats.result_bytes > 0'; do
	echo "$stats" | jq -e "$want" >/dev/null || {
		echo "smoke_odrcd: warm check was not replayed ($want): $stats" >&2
		exit 1
	}
done
curl -fsS -X POST "$base/v1/sessions/uart/check" \
	-d "{\"rules\":[\"$RULE\"]}" >"$tmp/http_one.json"

# The service contract: responses are the batch CLI's canonical bytes,
# whether the session is cold, warm, or serving a single rule.
cmp "$tmp/batch_full.json" "$tmp/http_cold.json"
cmp "$tmp/batch_full.json" "$tmp/http_warm.json"
cmp "$tmp/batch_one.json" "$tmp/http_one.json"

# Cross-tenant saturation probe: two sessions (distinct tenants by default)
# checked concurrently through the shared fair scheduler. Whatever the
# interleaving, both responses must still be byte-identical to the batch
# CLI — fair scheduling moves latency, never results — and /debug/sched
# must account for both tenants.
curl -fsS -X POST "$base/v1/sessions" \
	-d "{\"id\":\"sat-a\",\"gds\":\"$tmp/uart.gds\"}" >/dev/null
curl -fsS -X POST "$base/v1/sessions" \
	-d "{\"id\":\"sat-b\",\"gds\":\"$tmp/uart.gds\"}" >/dev/null
curl -fsS -X POST "$base/v1/sessions/sat-a/check" -d '{}' >"$tmp/http_sat_a.json" &
sat_a=$!
curl -fsS -X POST "$base/v1/sessions/sat-b/check" -d '{}' >"$tmp/http_sat_b.json" &
sat_b=$!
wait "$sat_a" "$sat_b"
cmp "$tmp/batch_full.json" "$tmp/http_sat_a.json"
cmp "$tmp/batch_full.json" "$tmp/http_sat_b.json"
sched="$(curl -fsS "$base/debug/sched")"
for want in '.policy == "fair"' '[.tenants[].tenant] | index("sat-a") != null' '[.tenants[].tenant] | index("sat-b") != null'; do
	echo "$sched" | jq -e "$want" >/dev/null || {
		echo "smoke_odrcd: sched check failed ($want): $sched" >&2
		exit 1
	}
done
curl -fsS -X DELETE "$base/v1/sessions/sat-a" >/dev/null
curl -fsS -X DELETE "$base/v1/sessions/sat-b" >/dev/null

# Incremental flow: on a fresh session, full check, insert a sub-min-width
# M1 sliver (layer 19, width 9 < MinWidthM1), then delta-check. The body
# must be byte-identical to ANOTHER fresh session given the same edit and a
# plain full check — the delta path may never change results, only cost.
edit='{"edits":[{"op":"insert_rect","layer":19,"xlo":100,"ylo":100,"xhi":109,"yhi":220}]}'
curl -fsS -X POST "$base/v1/sessions" \
	-d "{\"id\":\"edit-delta\",\"gds\":\"$tmp/uart.gds\"}" >/dev/null
curl -fsS -X POST "$base/v1/sessions/edit-delta/check" -d '{}' >/dev/null
curl -fsS -X POST "$base/v1/sessions/edit-delta/edit" -d "$edit" >/dev/null
curl -fsS -D "$tmp/delta_hdr" -X POST "$base/v1/sessions/edit-delta/check" \
	-d '{"delta":true}' >"$tmp/http_delta.json"
grep -qi '^X-Odrc-Delta-Planned: true' "$tmp/delta_hdr" || {
	echo "smoke_odrcd: delta check was not planned:" >&2
	cat "$tmp/delta_hdr" >&2
	exit 1
}
curl -fsS -X POST "$base/v1/sessions" \
	-d "{\"id\":\"edit-full\",\"gds\":\"$tmp/uart.gds\"}" >/dev/null
curl -fsS -X POST "$base/v1/sessions/edit-full/edit" -d "$edit" >/dev/null
curl -fsS -X POST "$base/v1/sessions/edit-full/check" -d '{}' >"$tmp/http_edit_full.json"
cmp "$tmp/http_delta.json" "$tmp/http_edit_full.json"

# The stats endpoint reports the session's traffic split.
stats="$(curl -fsS "$base/v1/sessions/edit-delta/stats")"
for want in '.stats.full_checks == 1' '.stats.delta_checks == 1' '.stats.delta_planned == 1' '.stats.delta_fallbacks == 0'; do
	echo "$stats" | jq -e "$want" >/dev/null || {
		echo "smoke_odrcd: stats check failed ($want): $stats" >&2
		exit 1
	}
done
curl -fsS -X DELETE "$base/v1/sessions/edit-delta" >/dev/null
curl -fsS -X DELETE "$base/v1/sessions/edit-full" >/dev/null

# No goroutine growth once the workload drains.
ok=""
i=0
while [ "$i" -lt 100 ]; do
	g1="$(curl -fsS "$base/debug/goroutines" | jq .goroutines)"
	if [ "$g1" -le $((g0 + 2)) ]; then
		ok=1
		break
	fi
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$ok" ]; then
	echo "smoke_odrcd: goroutines grew from $g0 to $g1 and stayed there" >&2
	curl -fsS "$base/debug/goroutines?stacks=1" >&2 || true
	exit 1
fi

# Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$pid"
wait "$pid"
pid=""
echo "smoke_odrcd: all green"
