#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source in
# the checkout it is started from and runs it with the arguments given.
# Everything either step writes — compiler cache, binary, WAL directories,
# trace.json — stays under .bench_build/ in that checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: start it from the root of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/anc-benchmark" ./benchmark
exec "$build/anc-benchmark" -out "$build/trace" "$@"
