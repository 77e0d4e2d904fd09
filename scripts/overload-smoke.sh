#!/usr/bin/env sh
# overload-smoke.sh — end-to-end drill of the resource governor.
#
# Boots gsmd with a single admission slot, a bounded queue, a memory budget
# and a 25ms injected service latency (fault point server.handler, hit
# after admission while the slot is held), then proves the overload claims
# from docs/SERVER.md:
#
#   1. Tenant fairness: a greedy tenant saturates the server from 32
#      closed-loop clients while a polite tenant replays a verified stream.
#      Deficit-weighted round robin must keep the polite tenant's goodput
#      at a healthy fraction of its isolated baseline (the design point is
#      1/2 — equal weights alternate the slot grants — asserted with
#      headroom for load-generator noise), and every polite answer must
#      stay byte-for-byte correct. The greedy tenant must be shed (503
#      overloaded), visible per tenant in /v1/stats. The injected latency
#      makes the slot, not the host's CPU, the contended resource, so the
#      assertion holds on a single-core runner.
#   2. Open-loop overload: gsmload -rate replays Poisson arrivals at ~5x
#      capacity; offered load is independent of server latency, so the
#      governor must shed hard — and the report must show the
#      offered/goodput split, a non-zero shed count and zero verification
#      mismatches. Degradation is shedding, never wrong answers.
#   3. Memory governance: /v1/stats must report resident backend bytes
#      within the boot-time budget, with the per-tenant admission section
#      present.
#
# Usage: scripts/overload-smoke.sh [polite requests] (default 120)
set -eu
. "$(dirname "$0")/lib.sh"

N="${1:-120}"
BUDGET=268435456 # 256 MiB: comfortably above the demo backend
TMP="$(mktemp -d)"
GSMD_PID=""
LOAD_PID=""
trap 'kill -9 "$GSMD_PID" "$LOAD_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "overload-smoke: building gsmd and gsmload"
go build -o "$TMP/gsmd" ./cmd/gsmd
go build -o "$TMP/gsmload" ./cmd/gsmload

# One admission slot, a short queue and a 25ms injected service time:
# contention is guaranteed whatever the host's speed, because the greedy
# flood keeps more requests in flight than slot + queue can hold, and the
# slot (not the CPU) is what everyone is waiting for.
start_gsmd overload-smoke -demo \
    -max-inflight 1 -queue-depth 8 -mem-budget "$BUDGET" \
    -faults 'server.handler=latency:p=1:ms=25'
echo "overload-smoke: gsmd up at $ADDR (1 slot, queue 8, budget $BUDGET bytes, 25ms injected latency)"

# jget FILE KEY: first numeric value of "KEY": N in a gsmload JSON report.
jget() {
    sed -n 's/.*"'"$2"'": *\([0-9.][0-9.]*\).*/\1/p' "$1" | head -n 1
}

echo "overload-smoke: phase 1 — polite tenant baseline, isolated"
"$TMP/gsmload" -addr "$ADDR" -tenant polite -clients 2 -n "$N" \
    -mode session -verify -json "$TMP/polite0.json"
G0="$(jget "$TMP/polite0.json" requests_per_sec)"

echo "overload-smoke: phase 2 — polite tenant under a greedy flood"
# The flood: closed-loop, far more clients than slot + queue, and a
# request count it will never finish — killed once the polite measurement
# is done. Its own report is irrelevant; its pressure is not. Shed clients
# back off per the server's Retry-After, so the flood saturates the queue
# without degenerating into a CPU-burning refusal hot loop.
"$TMP/gsmload" -addr "$ADDR" -tenant greedy -clients 32 -n 1000000 \
    -mode session -max-error-rate 1 > /dev/null 2>&1 &
LOAD_PID=$!
sleep 2
"$TMP/gsmload" -addr "$ADDR" -tenant polite -clients 2 -n "$N" \
    -mode session -verify -json "$TMP/polite1.json"
G1="$(jget "$TMP/polite1.json" requests_per_sec)"
kill "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
LOAD_PID=""

echo "overload-smoke: polite goodput isolated $G0 req/s, under flood $G1 req/s"
awk -v g1="$G1" -v g0="$G0" 'BEGIN { exit !(g1 >= 0.3 * g0) }' || {
    echo "overload-smoke: polite goodput under flood ($G1) fell below 30% of isolated ($G0); fairness is broken" >&2
    exit 1
}

STATS="$(curl -sf "http://$ADDR/v1/stats")"
GREEDY_SHED="$(echo "$STATS" | sed -n 's/.*"tenant": *"greedy"[^}]*"shed": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
if [ -z "$GREEDY_SHED" ] || [ "$GREEDY_SHED" -eq 0 ]; then
    echo "overload-smoke: greedy tenant was never shed under flood: $STATS" >&2
    exit 1
fi
echo "overload-smoke: greedy tenant shed $GREEDY_SHED requests, polite tenant shed 0"

echo "overload-smoke: phase 3 — open-loop Poisson arrivals at ~5x capacity"
"$TMP/gsmload" -addr "$ADDR" -tenant burst -clients 8 -rate 200 -n 400 \
    -mode session -verify -retries 2 -max-error-rate 1 -json "$TMP/open.json"
OFFERED="$(jget "$TMP/open.json" offered_per_sec)"
GOODPUT="$(jget "$TMP/open.json" goodput_per_sec)"
OPEN_SHED="$(jget "$TMP/open.json" shed)"
if [ -z "$OFFERED" ] || [ -z "$GOODPUT" ]; then
    echo "overload-smoke: open-loop report lacks offered/goodput split:" >&2
    cat "$TMP/open.json" >&2
    exit 1
fi
if [ -z "$OPEN_SHED" ] || [ "$OPEN_SHED" = "0" ]; then
    echo "overload-smoke: open-loop run at 5x capacity was never shed:" >&2
    cat "$TMP/open.json" >&2
    exit 1
fi
echo "overload-smoke: open loop offered $OFFERED req/s, goodput $GOODPUT req/s, shed $OPEN_SHED, 0 mismatches"

echo "overload-smoke: phase 4 — memory budget in /v1/stats"
STATS="$(curl -sf "http://$ADDR/v1/stats")"
RESIDENT="$(echo "$STATS" | sed -n 's/.*"resident_bytes": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
if [ -z "$RESIDENT" ] || [ "$RESIDENT" -le 0 ] || [ "$RESIDENT" -gt "$BUDGET" ]; then
    echo "overload-smoke: resident_bytes '$RESIDENT' missing or outside (0, $BUDGET]: $STATS" >&2
    exit 1
fi
echo "$STATS" | grep -q '"tenants"' || {
    echo "overload-smoke: /v1/stats has no per-tenant admission section: $STATS" >&2
    exit 1
}
echo "overload-smoke: resident $RESIDENT bytes within budget $BUDGET"

echo "overload-smoke: draining gsmd"
kill -TERM "$GSMD_PID"
wait "$GSMD_PID"
echo "overload-smoke: OK"
