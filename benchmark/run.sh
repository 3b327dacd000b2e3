#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from this
# checkout's source and runs it with the arguments given. Everything the
# build and the run write (go build cache and temporaries, binary, cluster
# data directories) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/go-tmp" GOTOOLCHAIN=local
go build -o "$build/sedna-benchmark" ./benchmark
exec "$build/sedna-benchmark" -tmp "$build/tmp" "$@"
