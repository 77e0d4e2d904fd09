# Single source of truth for the checks CI runs: .github/workflows/ci.yml
# invokes exactly these targets, so a green `make ci` locally means a green
# pipeline.

GO ?= go

.PHONY: build test test-race fuzz-smoke bench bench-smoke bench-pair bench-check lint fmt vet api-check api-update loc serve-smoke chaos-smoke overload-smoke ingest-smoke docs-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Time-boxed fuzzing of the query-language parsers, the graph-text parser
# and the CSV reader: each package's FuzzParse target for 10 s (go test
# -fuzz takes one package at a time).
FUZZ_PKGS = ./internal/rex ./internal/ree ./internal/rem ./internal/gxpath ./internal/datagraph ./internal/ingest

fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test -run '^$$' -fuzz '^FuzzParse' -fuzztime 10s $$pkg || exit 1; \
	done

# Full benchmark pass (slow; regenerates every experiment table).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .
	$(GO) run ./cmd/gsmbench -quick

# Seconds-long smoke pass for CI: one iteration per benchmark (which
# includes every quick experiment table, via BenchmarkExperimentTablesQuick).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Root benchmarks of the working tree against a base revision, on one
# machine in alternating pairs: BASE=<rev> BENCH=<regex> PAIRS=10 make
# bench-pair. Prints each side's median and quartiles and the pairs won.
bench-pair:
	BASE="$(BASE)" BENCH="$(BENCH)" PAIRS="$(PAIRS)" sh scripts/bench-pair.sh

# The benchmark harness (bench/, BENCHMARK.json) is a module of its own, so
# nothing above builds or tests it: vet it, run its tests, then one short
# verified run of a workload through the script the benchmark driver uses
# (exit 0 means every answer matched).
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	bash bench/run.sh --workload serve-scan --seed 16 --seconds 2 --trace 0

# Public-API surface guard: the exported facade (repro package) must match
# the committed api.txt golden, so PRs can't silently break downstream
# users. After an intentional API change: make api-update && commit api.txt.
api-check:
	$(GO) run ./cmd/apicheck

api-update:
	$(GO) run ./cmd/apicheck -write

# Size report: non-test and test Go lines outside bench/, and the length of
# docs/ARCHITECTURE.md — the figures ROADMAP.md states its line targets in
# (total Go lines are the first two summed).
loc:
	@printf 'non-test Go lines outside bench/: '; git ls-files '*.go' | grep -v '^bench/' | grep -v '_test.go$$' | xargs cat | wc -l
	@printf 'test Go lines outside bench/: '; git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l
	@printf 'docs/ARCHITECTURE.md lines: '; wc -l < docs/ARCHITECTURE.md

# End-to-end serving smoke: build gsmd+gsmload, boot the demo server on a
# free port, replay requests (byte-for-byte verified against the embedded
# session path), then drain gracefully. See scripts/server-smoke.sh.
serve-smoke:
	sh scripts/server-smoke.sh

# Crash/fault drill: boot gsmd with a state directory and fault injection,
# replay verified load under injected errors/panics/latency, tear a WAL
# append, SIGKILL, and prove byte-for-byte registry recovery. See
# scripts/chaos-smoke.sh.
chaos-smoke:
	sh scripts/chaos-smoke.sh

# Relational bulk-ingestion smoke: generate a CSV+SQLite dataset with
# `gsm genrel`, ingest both with `gsm ingest` (byte-for-byte equal), then
# stream the same payloads through gsmd's POST /v1/graphs/{name}/ingest
# and verify the NDJSON contract, idempotent replay and a certain-answer
# query over the landed graph. See scripts/ingest-smoke.sh.
ingest-smoke:
	sh scripts/ingest-smoke.sh

# Overload/fairness drill: boot gsmd with one admission slot, a bounded
# queue and a memory budget; assert a polite tenant keeps a healthy share
# of its isolated goodput under a greedy flood (byte-for-byte verified),
# exercise open-loop Poisson arrivals, and check resident bytes stay within
# budget. See scripts/overload-smoke.sh.
overload-smoke:
	sh scripts/overload-smoke.sh

# Documentation check: every local markdown link in README.md and
# docs/*.md, and every markdown file they name in code quotes, must resolve
# to an existing file, every #fragment to a heading of its target, every
# repro.Name they quote in code to a line of api.txt, and every make
# target they quote in code to a rule of this Makefile.
docs-check:
	$(GO) test -run 'TestDocsLinks|TestDocsFacadeNames|TestDocsMakeTargets' .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint: fmt vet

ci: build lint api-check docs-check test-race fuzz-smoke serve-smoke chaos-smoke overload-smoke ingest-smoke bench-smoke bench-check
