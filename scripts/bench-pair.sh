#!/usr/bin/env sh
# bench-pair.sh — compare root benchmarks of the working tree with a base
# revision on one machine, in alternating pairs.
#
# Builds a `go test -c` binary of the root package for BASE (exported with
# git archive into a temporary directory) and one for the working tree,
# then runs PAIRS pairs, the side that goes first alternating from pair to
# pair. Per benchmark it prints the parent's and the change's ns/op median
# and quartiles, the median B/op and allocs/op of each side, and in how
# many pairs the change was faster.
#
# Usage: BASE=<rev> BENCH=<regex> PAIRS=10 scripts/bench-pair.sh
#        (defaults: BASE=HEAD, BENCH=., PAIRS=10; make bench-pair)
set -eu
. "$(dirname "$0")/lib.sh"

BASE="${BASE:-HEAD}"
BENCH="${BENCH:-.}"
PAIRS="${PAIRS:-10}"
ROOT="$(git rev-parse --show-toplevel)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

echo "bench-pair: building $BASE and the working tree" >&2
mkdir "$TMP/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go test -c -o "$TMP/parent.test" .)
(cd "$ROOT" && go test -c -o "$TMP/change.test" .)

# run SIDE DIR PAIR appends "side pair name ns B allocs" per benchmark.
run() {
    (cd "$2" && "$TMP/$1.test" -test.run '^$' -test.bench "$BENCH" -test.benchmem) |
        awk -v side="$1" -v pair="$3" '/^Benchmark/ && /ns\/op/ {
            sub(/-[0-9]+$/, "", $1); print side, pair, $1, $3, $5, $7 }' >>"$TMP/results"
}
i=1
while [ "$i" -le "$PAIRS" ]; do
    echo "bench-pair: pair $i of $PAIRS" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$TMP/base" "$i"; run change "$ROOT" "$i"
    else
        run change "$ROOT" "$i"; run parent "$TMP/base" "$i"
    fi
    i=$((i + 1))
done

echo "nproc: $(nproc)  go: $(go env GOVERSION)  pairs: $PAIRS  base: $(git -C "$ROOT" rev-parse --short "$BASE")"
awk -v pairs="$PAIRS" '
function isort(n,   i, j, t) { for (i = 1; i < n; i++) { t = v[i]; for (j = i - 1; j >= 0 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } }
# load sorts field f (4 ns/op, 5 B/op, 6 allocs/op) of one side into v.
function load(key, side, f,   i) { n = cnt[key, side]; for (i = 0; i < n; i++) v[i] = val[key, side, i, f]; isort(n) }
function q(x) { return v[int((n - 1) * x + 0.5)] }
!(($3) in seen) { seen[$3] = 1; names[nn++] = $3 }
{ i = cnt[$3, $1]++; for (f = 4; f <= 6; f++) val[$3, $1, i, f] = $f + 0; ns[$3, $1, $2] = $4 + 0 }
END {
    for (k = 0; k < nn; k++) {
        key = names[k]
        load(key, "parent", 4); pm = q(.5); p1 = q(.25); p3 = q(.75)
        load(key, "change", 4); cm = q(.5); c1 = q(.25); c3 = q(.75)
        load(key, "parent", 5); pb = q(.5); load(key, "change", 5); cb = q(.5)
        load(key, "parent", 6); pa = q(.5); load(key, "change", 6); ca = q(.5)
        faster = 0; both = 0
        for (p = 1; p <= pairs; p++) if (((key, "parent", p) in ns) && ((key, "change", p) in ns)) { both++; faster += ns[key, "change", p] < ns[key, "parent", p] }
        printf "%s\n  ns/op %.0f (%.0f–%.0f) → %.0f (%.0f–%.0f)  B/op %.0f → %.0f  allocs/op %.0f → %.0f  change faster in %d/%d pairs\n",
            key, pm, p1, p3, cm, c1, c3, pb, cb, pa, ca, faster, both
    }
}' "$TMP/results"
