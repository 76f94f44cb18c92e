#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (build cache and the compiler's temporary files
# included, so the build writes nothing outside the working tree) and
# runs it with the driver's arguments.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOFLAGS=-buildvcs=false
go build -o "$build/pano-benchmark" ./benchmark
exec "$build/pano-benchmark" "$@"
