#!/usr/bin/env bash
# Runs the four workloads, untraced and traced, for a list of seeds and
# appends every result to benchmark/out/<commit>.jsonl, the input of
# benchmark/compare:
#   bash benchmark/run.sh [seed...]        (default: 1 2 3 4 5)
# Every run measures for BENCHMARK.json's run_seconds. TRACE="0" runs the
# untraced half only, which is all the steadiness check (compare with
# one file) reads.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5)
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
[ -z "$(git -C "$here" status --porcelain 2>/dev/null)" ] || commit="$commit-dirty"
export BENCH_COMMIT="$commit"
mkdir -p "$here/out"
out="$here/out/$commit.jsonl"
for seed in "${seeds[@]}"; do
	for workload in audit-full audit-embed churn replay; do
		for trace in ${TRACE:-0 1}; do
			echo "== $workload seed=$seed trace=$trace" >&2
			bash "$here/bench.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" | tail -n 1
		done
	done
done
echo "results appended to $out" >&2
