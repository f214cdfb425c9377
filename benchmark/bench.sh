#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs one workload,
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build leaves behind goes under .bench_build/ at the
# root of the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local go build -o "$build/turbo-benchmark" .
exec "$build/turbo-benchmark" "$@"
