GO ?= go

.PHONY: all fmt build vet staticcheck test race ci faults faults-netsim fuzz bench bench-smoke bench-check bench-scale bench-scale-smoke serve-smoke serve-loadtest perfbench-test

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
# eviction) with reportable numbers; the -race variant runs under
# `race` via TestLoadHarness.
serve-loadtest:
	$(GO) run ./cmd/hqserved -loadtest

# The benchmark harness is its own module (perfbench/go.mod), so the
# root `go test ./...` never builds it: vet and test it here, so an
# edit to an API it imports fails CI rather than the next benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

ci: fmt build vet staticcheck race faults faults-netsim serve-smoke bench-smoke bench-scale-smoke bench-check perfbench-test

# Short real fuzz runs of the fault-plan parser and the engine under
# fuzzed fault application (regression corpus always runs under `test`).
fuzz:
	$(GO) test ./internal/faults -fuzz FuzzParse -fuzztime 15s
	$(GO) test ./internal/runtime -fuzz FuzzFaultApplication -fuzztime 20s
	$(GO) test ./internal/serve -fuzz FuzzParseRequest -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzReadEntries -fuzztime 10s
