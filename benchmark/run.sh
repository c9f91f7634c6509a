#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is BENCHMARK.json's
# command. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload fig4-packet --seed 1 --seconds 24 --trace 0
#
# Everything it writes stays inside the checkout: the binary and Go's build
# cache under .bench_build/, results and scratch files under benchmark/out/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run me from the root of a checkout of the repository (no go.mod / internal here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/home"
# The module has no dependencies, so nothing is fetched; HOME moves so that the
# go command's own per-user files (telemetry counters, env file) land here too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/spineless-bench" ./benchmark
exec "$build/spineless-bench" "$@"
