#!/usr/bin/env bash
# Hot-path benchmark harness: runs the tape-vs-infer (float64 and
# float32), batch-compile, audit, snapshot-publish, WAL-append and recovery-replay
# benchmarks with allocation reporting and writes a JSON snapshot to
# BENCH_infer.json (ns/op, B/op, allocs/op per benchmark). Then runs the
# tensor kernel grid (matmul GFLOP/s per kernel tier and precision, pool
# crossover) into BENCH_kernels.json, races the full-graph sweep against
# the naive score-everyone loop into BENCH_sweep.json, races the lambda
# embedding tier against the per-audit inference paths (plus the
# refresh-sweep cost at several dirty fractions) into BENCH_embed.json,
# and finally boots a tiny turbo-server under the open-loop load
# harness, writing the latency scoreboard to BENCH_load.json
# (p50/p99/p999 per endpoint, offered vs achieved QPS, per-tier serve
# counts).
#
# Usage: scripts/bench.sh [benchtime] [sweep_benchtime] [load_qps] [load_duration]
#        (defaults 200x / 5x / 150 / 5s)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-200x}"
OUT="BENCH_infer.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench (benchtime=$BENCHTIME)"
go test -run 'XXX-none' -bench 'BenchmarkScoreTapeVsInfer|BenchmarkHAGScoreTapeVsInfer|BenchmarkBatchCompile|BenchmarkAuditHotPath|BenchmarkSnapshotPublish|BenchmarkFeatureFanout|BenchmarkWALAppend|BenchmarkRecoveryReplay' \
    -benchtime "$BENCHTIME" -benchmem \
    ./internal/gnn/ ./internal/hag/ ./internal/server/ ./internal/persist/ | tee "$RAW"

# Parse `BenchmarkX-N  iters  ns/op  [custom metrics]  B/op  allocs/op`
# lines into JSON; B/op and allocs/op are found by their unit, since
# b.ReportMetric columns sit between them and ns/op.
awk -v benchtime="$BENCHTIME" '
BEGIN { n = 0 }
/^Benchmark/ && NF >= 8 {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    names[n] = name
    iters[n] = $2
    nsop[n] = $3
    for (f = 5; f <= NF; f++) {
        if ($f == "B/op") bop[n] = $(f - 1)
        if ($f == "allocs/op") allocs[n] = $(f - 1)
    }
    n++
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            names[i], iters[i], nsop[i], bop[i], allocs[i], (i < n - 1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"

# --- Tensor kernel grid ------------------------------------------------------
# GFLOP/s for every matmul kernel tier (serial naive, blocked, blocked +
# worker pool; float64 and float32) plus the pool-crossover
# microbenchmark behind the tuning constant in internal/tensor.
KERNEL_OUT="BENCH_kernels.json"
KERNEL_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$KERNEL_RAW"' EXIT

echo "== go test -bench kernels (benchtime=$BENCHTIME)"
go test -run 'XXX-none' -bench 'BenchmarkMatMulKernels|BenchmarkParallelCrossover' \
    -benchtime "$BENCHTIME" ./internal/tensor/ | tee "$KERNEL_RAW"

awk -v benchtime="$BENCHTIME" '
BEGIN { n = 0 }
/^Benchmark/ && NF >= 3 {
    name = $1
    sub(/-[0-9]+$/, "", name)
    names[n] = name
    iters[n] = $2
    nsop[n] = $3
    gflops[n] = ($5 == "GFLOP/s") ? $4 : ""
    n++
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", names[i], iters[i], nsop[i]
        if (gflops[i] != "") printf ", \"gflops\": %s", gflops[i]
        printf "}%s\n", (i < n - 1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$KERNEL_RAW" > "$KERNEL_OUT"

echo "wrote $KERNEL_OUT ($(grep -c '"name"' "$KERNEL_OUT") benchmarks)"

# --- Full-graph sweep vs naive score-everyone loop ---------------------------
SWEEP_BENCHTIME="${2:-5x}"
SWEEP_OUT="BENCH_sweep.json"
SWEEP_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$KERNEL_RAW" "$SWEEP_RAW"' EXIT

echo "== go test -bench sweep vs naive (benchtime=$SWEEP_BENCHTIME)"
go test -run 'XXX-none' -bench 'BenchmarkFullGraphSweep|BenchmarkScoreEveryoneNaive' \
    -benchtime "$SWEEP_BENCHTIME" . | tee "$SWEEP_RAW"

# Lines look like: BenchmarkFullGraphSweep-N  iters  ns/op  nodes  nodes/sweep
awk -v benchtime="$SWEEP_BENCHTIME" '
/^BenchmarkScoreEveryoneNaive/ { naive = $3; nodes = $5 }
/^BenchmarkFullGraphSweep/     { swp = $3; nodes = $5 }
END {
    if (naive == "" || swp == "") { print "missing sweep benchmark output" > "/dev/stderr"; exit 1 }
    printf "{\n  \"benchtime\": \"%s\",\n  \"nodes\": %s,\n", benchtime, nodes
    printf "  \"naive_ns_per_rescore\": %s,\n  \"sweep_ns_per_rescore\": %s,\n", naive, swp
    printf "  \"speedup\": %.2f\n}\n", naive / swp
}' "$SWEEP_RAW" > "$SWEEP_OUT"

echo "wrote $SWEEP_OUT (speedup $(grep '"speedup"' "$SWEEP_OUT" | tr -dc '0-9.')x)"

# --- Embedding tier vs per-audit inference -----------------------------------
# The lambda tier's TryServe, cold (star gather + final layer + head:
# the first hit on a row after a refresh) and warm (the row's score
# memo: every later hit), against the full per-audit path it replaces
# (2-hop sample + batch compile + TargetInferer) and the tape-backed
# reference, plus the incremental refresh sweep at 1/10/50% dirty
# fractions.
EMBED_OUT="BENCH_embed.json"
EMBED_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$KERNEL_RAW" "$SWEEP_RAW" "$EMBED_RAW"' EXIT

echo "== go test -bench embed tier vs per-audit inference (benchtime=$BENCHTIME)"
go test -run 'XXX-none' -bench 'BenchmarkEmbedServe|BenchmarkEmbedTargetInfer|BenchmarkEmbedTapeScore|BenchmarkEmbedRefresh' \
    -benchtime "$BENCHTIME" ./internal/embed/ | tee "$EMBED_RAW"

awk -v benchtime="$BENCHTIME" '
/^BenchmarkEmbedServe\/cold/            { cold = $3 }
/^BenchmarkEmbedServe\/warm/            { warm = $3 }
/^BenchmarkEmbedTargetInfer[- \t]/     { target = $3 }
/^BenchmarkEmbedTapeScore[- \t]/       { tape = $3 }
/^BenchmarkEmbedRefresh\/dirty-1pct/   { r1 = $3; rows1 = $5 }
/^BenchmarkEmbedRefresh\/dirty-10pct/  { r10 = $3; rows10 = $5 }
/^BenchmarkEmbedRefresh\/dirty-50pct/  { r50 = $3; rows50 = $5 }
END {
    if (cold == "" || warm == "" || target == "" || tape == "") { print "missing embed benchmark output" > "/dev/stderr"; exit 1 }
    printf "{\n  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"embed_serve_cold_ns_per_audit\": %s,\n", cold
    printf "  \"embed_serve_warm_ns_per_audit\": %s,\n", warm
    printf "  \"target_infer_ns_per_audit\": %s,\n", target
    printf "  \"tape_ns_per_audit\": %s,\n", tape
    printf "  \"speedup_vs_target_infer\": {\"cold\": %.2f, \"warm\": %.2f},\n", target / cold, target / warm
    printf "  \"speedup_vs_tape\": {\"cold\": %.2f, \"warm\": %.2f},\n", tape / cold, tape / warm
    printf "  \"refresh\": [\n"
    printf "    {\"dirty_pct\": 1, \"ns_per_refresh\": %s, \"rows_per_refresh\": %s},\n", r1, rows1
    printf "    {\"dirty_pct\": 10, \"ns_per_refresh\": %s, \"rows_per_refresh\": %s},\n", r10, rows10
    printf "    {\"dirty_pct\": 50, \"ns_per_refresh\": %s, \"rows_per_refresh\": %s}\n", r50, rows50
    printf "  ]\n}\n"
}' "$EMBED_RAW" > "$EMBED_OUT"

echo "wrote $EMBED_OUT (embed serve cold $(sed -n 's/.*"embed_serve_cold_ns_per_audit": \([0-9.]*\).*/\1/p' "$EMBED_OUT") ns, warm $(sed -n 's/.*"embed_serve_warm_ns_per_audit": \([0-9.]*\).*/\1/p' "$EMBED_OUT") ns per audit)"

# --- Open-loop load scoreboard ----------------------------------------------
LOAD_QPS="${3:-150}"
LOAD_DUR="${4:-5s}"
LOAD_OUT="BENCH_load.json"
LOAD_ADDR="127.0.0.1:18091"
TMPBIN="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    rm -f "$RAW" "$KERNEL_RAW" "$SWEEP_RAW" "$EMBED_RAW"
    rm -rf "$TMPBIN"
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

echo "== turbo-loadgen ($LOAD_QPS qps for $LOAD_DUR against a tiny turbo-server on $LOAD_ADDR)"
go build -o "$TMPBIN/turbo-server" ./cmd/turbo-server
go build -o "$TMPBIN/turbo-loadgen" ./cmd/turbo-loadgen
"$TMPBIN/turbo-server" -preset tiny -addr "$LOAD_ADDR" &
SERVER_PID=$!

# The loadgen waits on /readyz itself (training the tiny model takes a
# few seconds); the mixed run ingests live events and audits seeded uids.
"$TMPBIN/turbo-loadgen" -base "http://$LOAD_ADDR" \
    -qps "$LOAD_QPS" -duration "$LOAD_DUR" -mix.audit 0.5 -seed 42 \
    -ready-wait 120s -out "$LOAD_OUT"

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "wrote $LOAD_OUT (max sustainable $(grep '"max_sustainable_qps"' "$LOAD_OUT" | tr -dc '0-9.') qps at the offered rate)"
