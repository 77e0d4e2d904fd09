#!/usr/bin/env sh
# chaos-smoke.sh — crash/fault drill for the serving stack.
#
# Boots gsmd with a persistent state directory and fault injection
# enabled, then proves the three robustness claims end to end:
#
#   1. Fault tolerance: gsmload -chaos arms injected errors, panics and
#      latency across the handler, materialization/chase/memo and stream
#      layers, replays the verified workload through the retrying client,
#      and fails on any byte-level answer mismatch — faults may cost
#      availability (bounded by the error budget), never correctness.
#   2. Torn-write recovery: a partial-write fault tears a WAL append
#      mid-frame (the registration correctly fails), then the server is
#      SIGKILLed — no drain, no checkpoint — and restarted on the same
#      state directory. Recovery must quarantine the torn tail and rebuild
#      the registry exactly.
#   3. Byte-for-byte registry recovery: the post-crash gsmload run
#      re-registers the demo pair; the server's idempotent-or-409 contract
#      turns any recovered-content drift into a hard failure, and -verify
#      re-checks every answer against the embedded session path.
#
# Phase 1's -chaos plan includes core.chase, core.memo and
# server.materialize faults, so the verified replay also proves a failed
# mid-materialization build is discarded, never served. Phase 1c drills
# govern.admit: an armed one-shot error must shed the next request before
# any work is done, and the retry (plan exhausted) must succeed. Phase 1d
# drills ingest.commit: a commit fault mid bulk load must fail without
# landing anything in the registry, and the retried load's landing must
# survive the phase-2 crash.
#
# Usage: scripts/chaos-smoke.sh [requests] (default 200)
set -eu
. "$(dirname "$0")/lib.sh"

N="${1:-200}"
TMP="$(mktemp -d)"
GSMD_PID=""
trap 'kill -9 "$GSMD_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "chaos-smoke: building gsmd and gsmload"
go build -o "$TMP/gsmd" ./cmd/gsmd
go build -o "$TMP/gsmload" ./cmd/gsmload

start_gsmd chaos-smoke -state-dir "$TMP/state" -enable-faults -demo
echo "chaos-smoke: gsmd up at $ADDR (state dir, faults enabled)"

echo "chaos-smoke: phase 1 — verified replay under injected faults"
# -chaos arms the default multi-layer fault plan over HTTP, replays with
# the retrying client and exits 3 on any verification mismatch (2 on a
# blown error budget) — either fails this script.
"$TMP/gsmload" -addr "$ADDR" -clients 8 -n "$N" -mode session -verify -chaos

echo "chaos-smoke: phase 1c — injected shed at the admission governor"
SID="$(curl -sf -X POST "http://$ADDR/v1/sessions" -H 'X-Tenant: chaos' \
    -d '{"mapping":"demo","graph":"demo"}' | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
if [ -z "$SID" ]; then
    echo "chaos-smoke: could not create a session for the admission drill" >&2
    exit 1
fi
# Arm a one-shot error on the governor's admission decision: the next
# request must be refused with the injected fault before any work is done,
# and the one after (plan exhausted) must be admitted and answer normally.
curl -sf -X POST "http://$ADDR/v1/admin/faults" \
    -d '{"spec":"govern.admit=error:n=1","seed":11}' > /dev/null
FIRST="$(curl -s -X POST "http://$ADDR/v1/sessions/$SID/query" -H 'X-Tenant: chaos' \
    -d '{"query":"s t","lang":"rpq"}')"
if ! echo "$FIRST" | grep -q 'govern.admit'; then
    echo "chaos-smoke: armed admission fault did not surface: $FIRST" >&2
    exit 1
fi
SECOND="$(curl -s -X POST "http://$ADDR/v1/sessions/$SID/query" -H 'X-Tenant: chaos' \
    -d '{"query":"s t","lang":"rpq"}')"
if ! echo "$SECOND" | grep -q '"answers"'; then
    echo "chaos-smoke: admission retry after fault exhaustion failed: $SECOND" >&2
    exit 1
fi
curl -sf -X POST "http://$ADDR/v1/admin/faults" -d '{"spec":""}' > /dev/null

echo "chaos-smoke: phase 1d — injected commit fault mid bulk ingest"
# Arm a one-shot error on the ingest pipeline's batch commit: the bulk
# load must fail in-band (terminal NDJSON error chunk), nothing may land
# in the registry, and the retry (plan exhausted) must land normally —
# the landing is then WAL-logged, so phase 3 checks it survives the crash.
curl -sf -X POST "http://$ADDR/v1/admin/faults" \
    -d '{"spec":"ingest.commit=error:n=1","seed":21}' > /dev/null
ING='{"schema":"table t\ncol t id int pk\ncol t v text\n","tables":{"t":"id,v\n1,a\n2,b\n3,c\n"}}'
FIRST="$(curl -s -X POST "http://$ADDR/v1/graphs/bulk/ingest" -d "$ING")"
if ! echo "$FIRST" | grep -q 'ingest.commit'; then
    echo "chaos-smoke: armed ingest fault did not surface: $FIRST" >&2
    exit 1
fi
if curl -sf "http://$ADDR/v1/graphs/bulk" > /dev/null 2>&1; then
    echo "chaos-smoke: faulted bulk load landed in the registry anyway" >&2
    exit 1
fi
SECOND="$(curl -s -X POST "http://$ADDR/v1/graphs/bulk/ingest" -d "$ING")"
if ! echo "$SECOND" | grep -q '"done":true'; then
    echo "chaos-smoke: ingest retry after fault exhaustion failed: $SECOND" >&2
    exit 1
fi
curl -sf "http://$ADDR/v1/graphs/bulk" > /dev/null
curl -sf -X POST "http://$ADDR/v1/admin/faults" -d '{"spec":""}' > /dev/null

echo "chaos-smoke: phase 2 — torn WAL append, then SIGKILL"
# Arm a one-shot partial write on the WAL and attempt a registration: the
# append must fail (storage_failed) leaving a torn tail on disk.
curl -sf -X POST "http://$ADDR/v1/admin/faults" \
    -d '{"spec":"wal.append=partial:n=1","seed":99}' > /dev/null
if ! curl -s -X POST "http://$ADDR/v1/mappings" \
    -d '{"name":"torn","text":"rule a -> b\n"}' | grep -q 'storage_failed'; then
    echo "chaos-smoke: torn WAL append did not fail with storage_failed" >&2
    exit 1
fi
kill -9 "$GSMD_PID"
wait "$GSMD_PID" 2>/dev/null || true

echo "chaos-smoke: phase 3 — restart and byte-for-byte recovery"
# No -demo this time: everything the post-crash run sees must come from
# the recovered snapshot + WAL.
start_gsmd chaos-smoke -state-dir "$TMP/state" -enable-faults
echo "chaos-smoke: gsmd back up at $ADDR"
if [ ! -s "$TMP/state/registry.wal.quarantine" ]; then
    echo "chaos-smoke: torn WAL tail was not quarantined" >&2
    exit 1
fi
# The idempotent re-registration inside gsmload 409s if the recovered
# registry bytes drifted; -verify re-checks every answer.
"$TMP/gsmload" -addr "$ADDR" -clients 8 -n "$N" -mode session -verify
# The bulk-ingested graph from phase 1d must survive the crash: its
# landing was WAL-logged before the SIGKILL.
if ! curl -sf "http://$ADDR/v1/graphs/bulk" > /dev/null; then
    echo "chaos-smoke: bulk-ingested graph lost across the crash" >&2
    exit 1
fi
# The recovered mapping must be the registry's only one ("torn" was never
# acknowledged and must not resurface).
if curl -sf "http://$ADDR/v1/mappings/torn" > /dev/null 2>&1; then
    echo "chaos-smoke: unacknowledged registration resurfaced after crash" >&2
    exit 1
fi

echo "chaos-smoke: draining gsmd"
kill -TERM "$GSMD_PID"
wait "$GSMD_PID"
echo "chaos-smoke: OK"
