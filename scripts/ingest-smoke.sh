#!/usr/bin/env sh
# ingest-smoke.sh — end-to-end smoke test of the relational bulk-ingestion
# path.
#
# Generates the synthetic customer/product/orders dataset with
# `gsm genrel` (CSV files + schema + a SQLite image), ingests it twice
# with `gsm ingest` — once from the CSV files, once from the SQLite
# database — and demands byte-for-byte identical graphs. Then boots gsmd,
# streams the same CSV payloads through POST /v1/graphs/{name}/ingest,
# checks the NDJSON progress/done contract, verifies the landed graph's
# node/edge counts against the CLI load, replays the request to prove
# idempotence, and finally registers a mapping over the direct-mapped
# labels and runs a certain-answer query whose count must equal the
# generated orders rows (every order has a customer).
#
# Usage: scripts/ingest-smoke.sh [orders] (default 400)
set -eu
. "$(dirname "$0")/lib.sh"

ORDERS="${1:-400}"
CUSTOMERS=$((ORDERS / 4))
PRODUCTS=$((ORDERS / 10))
TMP="$(mktemp -d)"
GSMD_PID=""
trap 'kill "$GSMD_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "ingest-smoke: building gsm and gsmd"
go build -o "$TMP/gsm" ./cmd/gsm
go build -o "$TMP/gsmd" ./cmd/gsmd

echo "ingest-smoke: generating dataset ($CUSTOMERS customers, $PRODUCTS products, $ORDERS orders)"
"$TMP/gsm" genrel -dir "$TMP/data" -customers "$CUSTOMERS" -products "$PRODUCTS" \
    -orders "$ORDERS" -seed 18 -sqlite "$TMP/data.sqlite"

echo "ingest-smoke: CSV and SQLite ingests must agree byte-for-byte"
"$TMP/gsm" ingest -schema "$TMP/data/schema.txt" -batch 256 -o "$TMP/from-csv.txt" > "$TMP/report.txt"
"$TMP/gsm" ingest -sqlite "$TMP/data.sqlite" -batch 256 -o "$TMP/from-sqlite.txt" > /dev/null
cmp "$TMP/from-csv.txt" "$TMP/from-sqlite.txt"
cat "$TMP/report.txt"
NODES="$(sed -n 's/.*-> \([0-9]*\) nodes.*/\1/p' "$TMP/report.txt")"
EDGES="$(sed -n 's/.*nodes, \([0-9]*\) edges.*/\1/p' "$TMP/report.txt")"
if [ -z "$NODES" ] || [ -z "$EDGES" ]; then
    echo "ingest-smoke: could not parse the CLI load report" >&2
    exit 1
fi

echo "ingest-smoke: booting gsmd"
start_gsmd ingest-smoke -state-dir "$TMP/state"
echo "ingest-smoke: gsmd up at $ADDR"

# JSON-escape a file: backslashes and quotes escaped, newlines folded to \n.
json_escape() {
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$1" | awk '{printf "%s\\n", $0}'
}
{
    printf '{"schema":"%s","batch_size":256,"tables":{' "$(json_escape "$TMP/data/schema.txt")"
    printf '"customer":"%s",' "$(json_escape "$TMP/data/customer.csv")"
    printf '"product":"%s",' "$(json_escape "$TMP/data/product.csv")"
    printf '"orders":"%s"}}' "$(json_escape "$TMP/data/orders.csv")"
} > "$TMP/req.json"

echo "ingest-smoke: streaming ingest through POST /v1/graphs/rel/ingest"
curl -sf -X POST "http://$ADDR/v1/graphs/rel/ingest" \
    --data-binary @"$TMP/req.json" > "$TMP/stream.ndjson"
if ! tail -n 1 "$TMP/stream.ndjson" | grep -q '"done":true'; then
    echo "ingest-smoke: stream did not end in a done chunk:" >&2
    tail -n 3 "$TMP/stream.ndjson" >&2
    exit 1
fi
if [ "$(wc -l < "$TMP/stream.ndjson")" -lt 2 ]; then
    echo "ingest-smoke: expected progress chunks before the terminal one" >&2
    exit 1
fi
if ! tail -n 1 "$TMP/stream.ndjson" | grep -q "\"nodes\":$NODES,\"edges\":$EDGES"; then
    echo "ingest-smoke: landed graph diverged from the CLI load ($NODES nodes / $EDGES edges):" >&2
    tail -n 1 "$TMP/stream.ndjson" >&2
    exit 1
fi

echo "ingest-smoke: idempotent replay"
curl -sf -X POST "http://$ADDR/v1/graphs/rel/ingest" \
    --data-binary @"$TMP/req.json" | tail -n 1 | grep -q '"done":true'

echo "ingest-smoke: certain-answer query over the landed graph"
curl -sf -X POST "http://$ADDR/v1/mappings" \
    -d '{"name":"rel","text":"rule orders#customer -> placed-by\n"}' > /dev/null
COUNT="$(curl -sf -X POST "http://$ADDR/v1/query" \
    -d '{"mapping":"rel","graph":"rel","query":"placed-by","lang":"rpq"}' \
    | grep -o '"count":[0-9]*' | head -n 1 | cut -d: -f2)"
if [ "$COUNT" != "$ORDERS" ]; then
    echo "ingest-smoke: placed-by answers = $COUNT, want $ORDERS (one per order)" >&2
    exit 1
fi

echo "ingest-smoke: draining gsmd"
kill -TERM "$GSMD_PID"
wait "$GSMD_PID"
echo "ingest-smoke: OK"
