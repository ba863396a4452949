#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload wifi-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build in that directory, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The Go tool's cache, temporary files, module path and user configuration
# (which holds its telemetry counters) all stay under the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
