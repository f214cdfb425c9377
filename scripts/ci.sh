#!/usr/bin/env bash
# CI gate: formatting, build, vet, race-test the concurrent packages
# (graph shards, BN construction, online serving — including the
# concurrent ingest+predict stress tests and the resilience/chaos
# suites), then the full tier-1 suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test -race (behavior log store / graph / bn / resilience / server incl. chaos + crash recovery / telemetry incl. trace ring + log-bucketed histogram / tape-free infer / persist / full-graph sweep / model lifecycle)"
go test -race ./internal/behavior/... ./internal/graph/... ./internal/bn/... ./internal/resilience/... ./internal/server/... ./internal/telemetry/... ./internal/gnn/... ./internal/hag/... ./internal/persist/... ./internal/sweep/... ./internal/embed/... ./internal/feature/... ./internal/lifecycle/... ./internal/tensor/... ./internal/autodiff/...

echo "== feature-table exactness smoke (random Append/AppendBatch/DropBefore/PutProfile/InvalidateUser interleavings vs Profile ⊕ StatFeatures bitwise, burst after a cached read, concurrent ingest; full-path audit after a burst scores fresh features; under -race)"
go test -race -count=1 -run 'TestTableExact|TestTableServesBurstAfterCachedRead|TestGatherStopsAtLowestFailingRow' ./internal/feature/
go test -race -count=1 -run 'TestFullPathScoresFreshFeaturesAfterBurst|TestFanout' ./internal/server/

echo "== graph shard-locking regression (Prune vs Snapshot vs writers, 20 rounds under -race)"
go test -race -count=20 -run TestConcurrentMutationAndReads ./internal/graph/

echo "== kernel-equivalence smoke (blocked/SIMD matmul bitwise vs naive scalar and independent of the row partition, f32 within tolerance of f64)"
go test -run 'TestMatMulBlockedBitwiseEqualsNaive|TestMatMulPartitionIndependence|TestInfer32MatchesFloat64|TestHAGInfer32MatchesFloat64' ./internal/tensor/ ./internal/gnn/ ./internal/hag/

echo "== go test -race (open-loop loadgen + streaming datagen; -short skips the 1M-user memory ceiling, which full tier-1 covers)"
go test -race -short ./internal/loadgen/ ./internal/datagen/

echo "== loadgen smoke (open-loop schedule vs in-process server: deterministic seed, schema-valid scoreboard JSON, coordinated-omission stall injection)"
go test -race -run 'TestLoadgenSmoke|TestCoordinatedOmissionSafety' ./internal/loadgen/

echo "== sweep-equivalence smoke (sharded layer-at-a-time sweep vs per-node gnn.Score, all models; serial sweep programs vs the tape forward, buffer recycling; a Spec-only test variant's Infer, InferTarget, serial and sharded sweep and InferFinal vs its own tape forward)"
go test -race -run 'TestSweepMatchesPerNodeScore|TestSweepMatchesBatchScores|TestSweepSnapshotIsolation|TestSpecVariantMatchesTape' ./internal/sweep/
go test -race -run 'TestSweepProgramMatchesInfer|TestSweepProgramRecyclesBuffers|TestHAGSweepMatchesInfer' ./internal/gnn/ ./internal/hag/

echo "== embedding-serving parity smoke (lambda tier vs full gnn.Score on every model variant, warm memo serve bitwise the cold one; dirty always falls back; randomized invalidation property; score memo re-runs the final layer after a neighbour's refresh and matches every generation's rows under concurrent refresh; under -race)"
go test -race -run 'TestEmbedServeParity|TestDirtyNeverServesStale|TestRandomizedDirtyPropagation|TestRebuildLogReplay|TestMemoInvalidatedByNeighbourRefresh|TestMemoConcurrentRefresh' ./internal/embed/

echo "== cone parity smoke (seven variants x {full, cut} sample: f64 target logit bitwise vs tape, f32 equal on both samples; hop-2 re-entry, 3 layers over 2 hops, shallow sample degrades; row-space snapshot walk vs SampleView, published cap order vs heavier, concurrent samples of two snapshot sizes return pooled scratch all-zero; under -race)"
go test -race -run 'TestConeParity|TestSnapshotSampleMatchesReference|TestSnapshotCapOrder|TestSnapshotSampleConcurrentPool|TestSampleConeCut' ./internal/server/ ./internal/graph/

echo "== crash-recovery property test (random kill points, under -race)"
go test -race -run 'TestRecoveryKillPoints|TestKillAndRestartRecoversExactState' ./internal/server/

echo "== model-lifecycle gate smoke (degenerate candidate rejected + quarantined, bad swap auto-rolled-back, a swap retires the in-flight audit's tier-3 score, a swapped-in model scores f64 until its own f32 gate passes, under -race)"
go test -race -run 'TestGatedRetrainRejectQuarantines|TestAutoRollbackOnErrorRate|TestModelStoreQuarantinedNeverAutoLoaded|TestSwapRetiresInFlightScore|TestSwapScoresF64UntilGateVerdict' ./internal/server/ ./internal/persist/

echo "== fuzz smoke (WAL payload decoder, 10s)"
go test -fuzz FuzzDecodeBehavior -fuzztime 10s -run 'XXX-none' ./internal/behavior/

echo "== /metrics exposition golden test"
go test -run 'TestExpositionGolden|TestMetricsEndpoint' ./internal/telemetry/... ./internal/server/...

echo "== benchmark smoke (compile + one iteration of each hot-path benchmark)"
go test -short -run 'XXX-none' -bench . -benchtime 1x ./internal/gnn/ ./internal/hag/ ./internal/server/ ./internal/embed/ ./internal/bn/

echo "== go test (full tier-1)"
go test ./...

echo "== benchmark module (its own go.mod, so neither go build ./... nor tier-1 compiles it)"
(cd benchmark && go vet ./... && go test -short ./...)

echo "CI OK"
