#!/usr/bin/env bash
# Builds sbmlbench from the checkout this is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/sbmlbench/run.sh --workload search-hot --seed 1 --seconds 15 --trace 0
#
# The binary, its build cache and the workload fixtures all live under
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/sbmlbench" ./cmd/sbmlbench
exec "$build/sbmlbench" -workdir "$build/work" "$@"
