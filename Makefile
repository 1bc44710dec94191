GO ?= go

.PHONY: all fmt build vet staticcheck test race ci faults faults-netsim fuzz bench bench-quick bench-smoke bench-check bench-scale bench-scale-smoke profile-sweeps serve-smoke serve-loadtest perfbench-test

# Committed benchmark baseline the regression gate compares against.
BENCH_BASELINE ?= BENCH_pr8.json

all: build

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any tracked Go file.
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt: no tracked Go files"; exit 1; }; \
	unformatted=$$(gofmt -l $$files); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Deeper static analysis when the tool is on PATH; CI images without
# staticcheck (nothing is installed on the fly) skip with a notice
# instead of failing the whole pipeline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-run the fault campaign: every named scenario must pass its
# invariant replay, and the rerun must be byte-identical.
faults:
	$(GO) run ./cmd/hqfaults -verify

# Wire-fault smoke: the small-d netsim scenario campaign under the
# race detector — including the event-by-event comparison of the
# striped validator with the single-mutex reference
# (TestDualValidatorUnderLinkFaults) — plus a byte-identical -verify
# replay of the netsim scenario family. Full-depth coverage lives in
# TestFaultedRunsTerminateClean (d<=8, plain `test`/`race`).
faults-netsim:
	$(GO) test -race -run 'Faulted|DualValidatorUnderLinkFaults' ./internal/netsim/...
	$(GO) run ./cmd/hqfaults -d 3 -family netsim -verify

# Full machine-readable benchmark report (compare against the
# committed BENCH_*.json baselines before merging perf changes).
bench:
	$(GO) run ./cmd/hqbench -out BENCH.json

# One-iteration pass over every testing.B benchmark: catches bit-rot
# in the bench harness without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regression gate: re-measure the hqbench families and fail if any
# regresses past the committed baseline's tolerance bands (ns/op +25%,
# allocs/op exact-or-better). Prints the offending families.
bench-check:
	$(GO) run ./cmd/hqbench -out /tmp/BENCH_check.json -against $(BENCH_BASELINE)

# Big-board scale gate alone: the implicit-topology families (d>=16,
# megannode board at d=20) re-measured and gated against the committed
# baseline. Subset runs compare only the families they measured, so
# this is the cheap way to revalidate a kernel or board change at
# scale without re-running the whole suite.
bench-scale:
	$(GO) run ./cmd/hqbench -out /tmp/BENCH_scale.json -families clean/d=16,clean/d=20,visibility/d=16,visibility/d=20 -against $(BENCH_BASELINE)

# Scale smoke for CI: just the d=16 points (clean and visibility), so
# every pipeline exercises the implicit-topology engines and their
# closed-form self-checks without paying for the d=20 megannode runs.
bench-scale-smoke:
	$(GO) run ./cmd/hqbench -out /tmp/BENCH_scale_smoke.json -families clean/d=16,visibility/d=16 -against $(BENCH_BASELINE)

# CPU profiles of the two perfbench sweeps' run shapes
# (BenchmarkSweepShapes in internal/core) at GOMAXPROCS=1: 20
# visibility runs at d=18 and 100 CLEAN runs at d=14 under adversary
# 13, each profile written to /tmp and printed as pprof's top table.
# Then 40 visibility runs at d=16 under adversary 13
# (BenchmarkOneAgentFlights/visibility), where flights seldom merge and
# a flush replays several landings per ready node, a shape no perfbench
# workload runs. Then the visibility shape as perfbench runs it, two
# runs at once (BenchmarkSweepPairs) at GOMAXPROCS=2: 10 pairs. A
# starting point for a board or engine change; not part of ci.
profile-sweeps:
	GOMAXPROCS=1 $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkSweepShapes/visibility' -benchtime 20x -o /tmp/sweeps.test -cpuprofile /tmp/sweep-visibility.pprof
	$(GO) tool pprof -top -nodecount 40 /tmp/sweeps.test /tmp/sweep-visibility.pprof
	GOMAXPROCS=1 $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkSweepShapes/clean' -benchtime 100x -o /tmp/sweeps.test -cpuprofile /tmp/sweep-clean.pprof
	$(GO) tool pprof -top -nodecount 40 /tmp/sweeps.test /tmp/sweep-clean.pprof
	GOMAXPROCS=1 $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkOneAgentFlights/visibility' -benchtime 40x -o /tmp/sweeps.test -cpuprofile /tmp/sweep-visibility-adversary.pprof
	$(GO) tool pprof -top -nodecount 40 /tmp/sweeps.test /tmp/sweep-visibility-adversary.pprof
	GOMAXPROCS=2 $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkSweepPairs/visibility' -benchtime 10x -o /tmp/sweeps.test -cpuprofile /tmp/sweep-visibility-pair.pprof
	$(GO) tool pprof -top -nodecount 40 /tmp/sweeps.test /tmp/sweep-visibility-pair.pprof

# Every hqbench family once, with its invariant and closed-form
# self-checks but without the timing gate, so a self-check failure
# cannot be mistaken for a slow or contended host.
bench-quick:
	$(GO) run ./cmd/hqbench -quick -out /tmp/BENCH_quick.json

# End-to-end smoke of the campaign service: start an hqserved daemon,
# submit a d<=8 campaign over HTTP, require streamed per-run progress,
# resubmit it verbatim and require a byte-identical cache hit, then
# POST /compact, restart the daemon on the compacted journal, and
# require the same campaign served byte-identically from the warmed
# cache (the compaction round-trip).
serve-smoke:
	$(GO) run ./cmd/hqserved -smoke

# The full robustness load test (concurrent mixed campaigns, mid-flight
# cancellation, panic isolation, 429/503 shedding, drain + restart
# resume, compaction under load vs an uncompacted twin, bounded-cache
# eviction): TestLoadHarness, whose log line carries the report's
# numbers; `race` runs it under the race detector.
serve-loadtest:
	$(GO) test -run TestLoadHarness -v -count=1 ./internal/serve/

# The benchmark harness is its own module (perfbench/go.mod), so the
# root `go test ./...` never builds it: vet and test it here, so an
# edit to an API it imports fails CI rather than the next benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

ci: fmt build vet staticcheck race faults faults-netsim serve-smoke bench-quick bench-smoke bench-scale-smoke bench-check perfbench-test

# Short real fuzz runs of every fuzz target: the fault-plan parser, the
# engine under fuzzed fault application, the request and journal
# decoders, the DES queue's dispatch order, the packed board against
# its legacy reference, the visibility engine's three strategies
# (visibility, cloning, synchronous) against their reference paths,
# trace decoding plus replay, the worker pool, the netsim wire
# layer under fuzzed plans and the topology spec parser (regression
# corpus always runs under `test`).
fuzz:
	$(GO) test ./internal/faults -fuzz FuzzParse -fuzztime 15s
	$(GO) test ./internal/runtime -fuzz FuzzFaultApplication -fuzztime 20s
	$(GO) test ./internal/serve -fuzz FuzzParseRequest -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzReadEntries -fuzztime 10s
	$(GO) test ./internal/des -fuzz FuzzEventOrder -fuzztime 10s
	$(GO) test ./internal/board -fuzz FuzzPackedMatchesLegacy -fuzztime 10s
	$(GO) test ./internal/strategy/visibility -fuzz FuzzInlineMatchesLegacy -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzReadJSON -fuzztime 10s
	$(GO) test ./internal/sched -fuzz FuzzMap -fuzztime 10s
	$(GO) test ./internal/netsim/faultlink -fuzz FuzzWirePlan -fuzztime 10s
	$(GO) test ./internal/topologies -fuzz FuzzParse -fuzztime 10s
