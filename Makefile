# Development and CI entry points. `make check` is what every PR must
# pass: gofmt, vet, the ANC invariant linter, build, the full test suite, the
# race detector, a short fuzz smoke over the six corruption-facing decoder
# targets (docs_test.go fails if a fuzz-smoke line names a target that does
# not exist), and the hot-path allocation gates. The acceptance loops of the
# replication, observability, cache, analytics and tracing subsystems
# (TestReplFailover, TestObsSmoke, TestCacheSmoke, TestAnalyticsSmoke,
# TestTraceSmoke) and the repo benchmark's short runs (TestWorkloadsShort,
# TestTraceShort: TCP ingest into a WAL-backed server, drain, recover,
# pooled parallel repair, follower catch-up) are ordinary tests: `make
# test` and `make race` run them. Performance is measured by
# `bash benchmark/run.sh` (BENCHMARK.json), not from here.

GO ?= go
FUZZTIME ?= 10s
ANCLINT := bin/anclint

# VERSION stamps the binaries (ancserve logs it at startup and /healthz
# reports it): the nearest git describe, "dev" outside a git checkout.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X anc/internal/obs.BuildVersion=$(VERSION)

.PHONY: check fmt-check vet lint lint-force lint-json tools build test race fuzz-smoke bench-smoke bench clean

check: fmt-check vet lint build test race fuzz-smoke bench-smoke

# fmt-check fails when gofmt would rewrite any file, and names the files.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt would rewrite:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# lint builds and runs the ANC invariant analyzer suite (internal/lint,
# DESIGN.md §9 and §14) over the whole module, including the audit that
# flags //anclint:ignore directives which no longer suppress anything.
# Suppress an intentional finding with
# `//anclint:ignore <analyzer> <reason>` on or above the line.
#
# A clean run is stamp-cached against every non-testdata .go file, so
# the `make check` fast path skips the ~2s module re-analysis when no
# source changed; `make lint-force` always re-runs.
LINT_STAMP := bin/.lint.ok
GO_SRCS := $(shell find . -name '*.go' -not -path '*/testdata/*' -not -path './bin/*' -not -path './.git/*')

lint: $(LINT_STAMP)

$(LINT_STAMP): $(ANCLINT) $(GO_SRCS)
	$(ANCLINT) -unused-ignores ./...
	@touch $@

lint-force: $(ANCLINT)
	$(ANCLINT) -unused-ignores ./...

# lint-json prints the findings as JSON on stdout — the shape CI's
# annotation step feeds through jq into per-line file annotations.
lint-json: $(ANCLINT)
	@$(ANCLINT) -unused-ignores -json ./...

$(ANCLINT): $(shell find internal/lint cmd/anclint -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $(ANCLINT) ./cmd/anclint

# tools verifies the toolchain the checks depend on. The analyzer suite
# is implemented in-tree over the standard library's go/* packages
# (no golang.org/x/tools dependency — see DESIGN.md §9), so this only
# pins the module graph.
tools:
	$(GO) mod verify
	$(GO) version

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each -fuzz run accepts a single target, so the smoke lists them
# explicitly: snapshot loading, WAL replay, the two sides of the wire
# protocol (every op, seeded from its sample request and response) and the
# two replication push decoders are the paths fed by potentially corrupt
# bytes.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzReplFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzReplStatus$$' -fuzztime $(FUZZTIME)

# bench-smoke is the dynamic half of the //anclint:hotpath contract
# (DESIGN.md §14) — gates, not measurements: the AllocsPerRun gates
# assert every annotated kernel runs at 0 allocs/op, and the hot-path
# benchmarks run under -benchmem so a regression is visible in the
# output. The writer's two kernels ride the same gate: the pyramid
# repair (relink/probe/markChanged, 0 allocs per update, serial and on the
# worker pool) and the power/even extraction (a constant number of
# allocations whatever the cluster count), with the orphaned-hub, batched
# repair and extraction benchmarks beside them; BenchmarkUpdateEdgesBatch
# runs an 88-edge batch serially and on the pool, and BenchmarkPowerRepair
# and BenchmarkEvenRepair repair a level along flip logs of 1, 8 and 64
# writes and one touching half the nodes, to be read against
# BenchmarkPower and BenchmarkEven (ns/op, B/op); BenchmarkLocal times the
# output-proportional local query, the third kernel that binds a level's
# votes (pyramid.Voter). The similarity gate covers the reinforcement's σ
# memo refresh on a 4,096-node graph, and BenchmarkFlush times one ANCOR
# interval flush (reinforcement with its memo refreshes, then the index
# repair) at the default ReinforceInterval. BenchmarkLoad times Save→Load
# of a warm 4,096-node network at -cpu 1,2: the index build fans out over
# GOMAXPROCS, so the serial and the fanned-out rebuild print side by side.
# BenchmarkActivateANCO times a per-op Activate, the one-element batch
# (0 allocs/op; core.TestActivateBatchAllocsWithBaselines gates it).
bench-smoke:
	$(GO) test -run '^TestHotPathAllocs$$' -count=1 ./internal/serve ./internal/obs ./internal/obs/trace ./internal/decay ./internal/similarity ./internal/cluster/cache ./internal/analytics ./internal/pyramid ./internal/cluster
	$(GO) test -run '^$$' -bench '^BenchmarkHotPath' -benchtime 100x -benchmem ./internal/serve ./internal/obs ./internal/obs/trace ./internal/decay ./internal/cluster/cache ./internal/analytics
	$(GO) test -run '^$$' -bench '^(BenchmarkUpdateEdgesHub|BenchmarkUpdateEdgesBatch|BenchmarkPower|BenchmarkPowerRepair|BenchmarkEven|BenchmarkEvenRepair|BenchmarkLocal)$$' -benchtime 20x -benchmem ./internal/pyramid ./internal/cluster
	$(GO) test -run '^$$' -bench '^BenchmarkFlush$$' -benchtime 20x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkLoad$$' -benchtime 10x -benchmem -cpu 1,2 ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkActivateANCO$$' -benchtime 2000x -benchmem .

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

clean:
	rm -rf bin
	$(GO) clean ./...
