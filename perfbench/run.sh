#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload sweep-clean --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write stays under .bench_build/ in that root: the Go build cache and
# temporary files, the binary, reports, spans and scratch journals.
# Outside a complete checkout (no parent module next to perfbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
