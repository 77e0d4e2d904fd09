#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout (build cache, module
# path and binary all under .bench_build) and runs it; every argument is
# passed through. BENCHMARK.json names this script as the command.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
