#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the root of the checkout, as BENCHMARK.json's
# command does: bash bench/run.sh --workload train.comm --seed 7 --seconds 12 --trace 0
# Everything the build writes, the Go build cache included, stays under
# .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
