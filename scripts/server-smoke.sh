#!/usr/bin/env sh
# server-smoke.sh — end-to-end smoke test of the serving stack.
#
# Builds gsmd and gsmload, boots gsmd with the demo (workload.Serving) pair
# on a free port, replays requests from concurrent clients with gsmload
# (which byte-for-byte verifies every response against the embedded
# repro.Session path), and fails on any request error or zero answers.
# gsmload exits non-zero on errors or an empty run, so this script's exit
# code is the verdict. Finishes by exercising graceful drain via SIGTERM.
#
# Usage: scripts/server-smoke.sh [requests] (default 100)
set -eu
. "$(dirname "$0")/lib.sh"

N="${1:-100}"
TMP="$(mktemp -d)"
GSMD_PID=""
trap 'kill "$GSMD_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "server-smoke: building gsmd and gsmload"
go build -o "$TMP/gsmd" ./cmd/gsmd
go build -o "$TMP/gsmload" ./cmd/gsmload

start_gsmd server-smoke -demo
echo "server-smoke: gsmd up at $ADDR, replaying $N requests"

"$TMP/gsmload" -addr "$ADDR" -clients 8 -n "$N" -mode session -verify

echo "server-smoke: draining gsmd"
kill -TERM "$GSMD_PID"
wait "$GSMD_PID"
echo "server-smoke: OK"
