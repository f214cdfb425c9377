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

echo "== layering (internal/graph writes the aggregation matrices as tensor.CSR and must not depend on the autodiff tape)"
if go list -deps ./internal/graph | grep -qx 'turbo/internal/autodiff'; then
    echo "internal/graph depends on turbo/internal/autodiff" >&2
    exit 1
fi

echo "== portable build (no amd64 assembly: the kernels_noasm.go stubs must keep compiling and vetting)"
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/tensor/ ./internal/gnn/ ./internal/autodiff/

echo "== go test -race (behavior log store / graph / bn / resilience / server incl. chaos + crash recovery / telemetry incl. trace ring + the one log-bucketed histogram + concurrent scrapes / tape-free infer / persist / full-graph forward / model lifecycle)"
go test -race ./internal/behavior/... ./internal/graph/... ./internal/bn/... ./internal/resilience/... ./internal/server/... ./internal/telemetry/... ./internal/gnn/... ./internal/hag/... ./internal/persist/... ./internal/embed/... ./internal/feature/... ./internal/lifecycle/... ./internal/tensor/... ./internal/autodiff/...

echo "== one read path (a user registered since the last Advance is audited on the full tier as a lone node, bitwise the tape; a hung sample fault degrades the audit at the sample deadline and is on its trace; 5 rounds under -race)"
go test -race -count=5 -run 'TestFreshUserAuditedAsLoneNode|TestChaosSamplingHangFallsBackToFeatureModel' ./internal/server/

echo "== feature-table exactness smoke (random Append/AppendBatch/DropBefore/PutProfile/InvalidateUser interleavings vs Apply(Profile ⊕ StatFeatures) bitwise through two normalizers and none, burst after a cached read, concurrent ingest ten times over raw and through two normalizers, a gather parked inside PutProfile never serves the old profile's row, a warm row hands over its normalizer memo and the cold path memoizes nothing; full-path audit after a burst scores fresh features; under -race)"
go test -race -count=1 -run 'TestTableExact|TestTableServesBurstAfterCachedRead|TestGatherStopsAtLowestFailingRow|TestGatherDuringPutProfile|TestGatherMemoizesPerNorm' ./internal/feature/
go test -race -count=10 -run 'TestTableExactUnderConcurrentIngest|TestTableExactNormsUnderConcurrentIngest' ./internal/feature/
go test -race -count=1 -run 'TestFullPathScoresFreshFeaturesAfterBurst|TestFanout' ./internal/server/

echo "== graph shard-locking regression (Prune vs Snapshot vs pair writers vs AddGroupWeight group writers locking overlapping shard sets, 20 rounds under -race)"
go test -race -count=20 -run TestConcurrentMutationAndReads ./internal/graph/

echo "== BN construction bitwise (Advance's group writes on integer epoch time bit for bit the per-pair time.Time builder on a bulk Advance and late-log hourly ticks: edge weights and expiries, typed degrees, counts, build totals, cursors, delta-observer pairs; AddGroupWeight vs a naive per-pair map model over fresh nodes, existing edges, repeated groups and groups of 2 and 64, and malformed groups rejected before any write; under -race)"
go test -race -count=1 -run 'TestAdvanceBitwiseMatchesPerPairBuilder|TestAddGroupWeightMatchesPairModel|TestAddGroupWeightRejectsBeforeWriting' ./internal/bn/ ./internal/graph/

echo "== kernel-equivalence smoke (blocked/SIMD matmul bitwise vs naive scalar and independent of the row partition at n 1 and 90; every f64 row kernel — dense, split, CSR.MatMulInto over int32 columns, CSRRowInto through a pos remap — bit-for-bit its scalar loop for n 1..40 x k 0..70 x rows 1..9 with ±0, subnormals, ±Inf and NaN and with a half-±0 ReLU-sparse A, SIMD on and off; the 4-row one-column product keeps −0 accumulators and skips 0·Inf; the f64 ReLU mask keeps −0 and NaN; the f64 tanh kernel bit-for-bit math.Tanh, called at run time, on 4M inputs and the branch-point, ±0, ±Inf, NaN, subnormal and overflow edges, also under GODEBUG=cpu.fma=off, cpu.avx=off and cpu.all=off; f64 kernels allocation-free below the parallel threshold; a CSR gather outside h or pos panics, int32 extremes included; f32 within tolerance of f64, f32 target cone bitwise the full f32 forward's row; every variant's f32 Infer32/InferTarget32 bits equal the recorded golden bits, SIMD on and off; the backward GEMMs MatMulTransA/MatMulTransB on the row kernel bit-for-bit their historical scalar loops with ±0, subnormals, ±Inf, NaN and half-±0 operands, the no-skip path for a non-finite operand, every row chunking and GOMAXPROCS 1-7, SIMD on and off)"
go test -run 'TestMatMulBlockedBitwiseEqualsNaive|TestMatMulPartitionIndependence|TestMatMulTransBitwiseScalar|TestMatMulTransPartitionIndependence|TestDaxpyBitwiseEqualsScalar|TestF64KernelsBitwiseProperty|TestGEMVBitwiseScalar|TestReLU64BitwiseScalar|TestTanh64BitwiseMathTanh|TestTanh64FollowsGODEBUG|TestF64KernelsSerialAllocFree|TestCSRMatMulSerialAllocFree|TestCSRGatherOutOfRangePanics|TestInfer32MatchesFloat64|TestHAGInfer32MatchesFloat64|TestInferTarget32MatchesFull|TestFloat32Golden' ./internal/tensor/ ./internal/autodiff/ ./internal/gnn/ ./internal/hag/

echo "== portable kernels (TURBO_NOSIMD=1: every generic entry point's precision dispatch must reach the portable arm and keep its parity tests green; every trained parameter keeps the golden bits)"
TURBO_NOSIMD=1 go test -count=1 ./internal/tensor/ ./internal/autodiff/ ./internal/gnn/ ./internal/hag/
TURBO_NOSIMD=1 go test -count=1 -run 'TestTrainGolden' ./internal/eval/

echo "== go test -race (open-loop loadgen + streaming datagen; -short skips the 1M-user memory ceiling, which full tier-1 covers)"
go test -race -short ./internal/loadgen/ ./internal/datagen/

echo "== loadgen smoke (open-loop schedule vs in-process server: deterministic seed, schema-valid scoreboard JSON, coordinated-omission stall injection)"
go test -race -run 'TestLoadgenSmoke|TestCoordinatedOmissionSafety' ./internal/loadgen/

echo "== full-graph forward smoke (one fork-join per layer, self-scheduled tiles: Infer at GOMAXPROCS 1, 2, 3 and 7, all seven variants bitwise the tape at f64 and bitwise the one-range logits at f32, within 1e-12 of per-node gnn.Score, unchanged under concurrent graph writes, eight concurrent forwards over one fresh FullBatch bitwise the tape with each matrix compiled once, under -race; a second forward of the same shape borrows every buffer from the pools and a tile loop's pooled scratch is the same at 512 and 4,096 rows, without -race, which drops pool Puts; a test variant declared only by a generic spec: Infer at every split, InferTarget, the capturing InferEmbed and InferFinal vs its own tape forward, and its float32 instantiation's target rows bitwise its full float32 forward and within the serving gate)"
go test -race -run 'TestSweepMatchesPerNodeScore|TestSweepMatchesBatchScores|TestSweepSnapshotIsolation|TestSpecVariantMatchesTape|TestFullBatchConcurrentScores' ./internal/gnn/
go test -run 'TestInferRecyclesBuffers|TestInferScratchIsOneTile' ./internal/gnn/

echo "== embedding-serving parity smoke (lambda tier bitwise the full gnn.Score on every model variant, warm memo serve bitwise the cold one; dirty always falls back; randomized invalidation property; score memo re-runs the final layer after a neighbour's refresh and matches every table's rows under concurrent refresh; a rebuild keeps a delta noted before it began and flushed under it, a refresh computes on the newest flushed snapshot, and every hit read from one table equals the full forward on the reader's snapshot beside an Advance-like writer, a refresher and a rebuilder, 5 rounds; a rebuild warms tier 3 with scores bitwise a fresh gnn.Score, as every boot relies on; every Build and Refresh star bitwise the row a fresh full-graph batch compiles; under -race)"
go test -race -run 'TestEmbedServeParity|TestDirtyNeverServesStale|TestRandomizedDirtyPropagation|TestRebuildLogReplay|TestMemoInvalidatedByNeighbourRefresh|TestMemoConcurrentRefresh|TestStarsAreBatchRows|TestRebuildKeepsPendingDelta|TestRefreshComputesOnFlushedSnapshot' ./internal/embed/
go test -race -count=5 -run 'TestConcurrentTableChanges' ./internal/embed/
go test -race -run 'TestRebuildWarmsScoreCache' ./internal/server/

echo "== cone and full-graph parity smoke (seven variants, all with a target driver, x {full, cut, sampled-into-the-batch}: f64 target logit bitwise vs tape, f32 bitwise equal on all three; the snapshot walk's CSRs bitwise NewBatch's for every aggregation, with filter rejections, a masked type, over-cap rows, hop-2 re-entry, 3 layers; the same writer's full-graph batches (FullBatch) bitwise NewBatch over FullSubgraph with their f32 mirrors, every aggregation, raw and normalized, masked or not, shuffled node lists with an absent ID, three seeds, GAT's tape structure vs the merged edge list; a cut sample is refused by a deeper model's ScoreCtx and Score32, and a 3-layer model's audit, cut for its own depth, serves the full tier; row-space snapshot walk vs SampleView, published cap order vs heavier, concurrent samples of two snapshot sizes return pooled scratch all-zero; under -race)"
go test -race -run 'TestConeParity|TestConeCSRMatchesNewBatch|TestSnapshotSampleMatchesReference|TestSnapshotCapOrder|TestSnapshotSampleConcurrentPool|TestSampleConeCut|TestFullBatchMatchesNewBatch' ./internal/server/ ./internal/graph/ ./internal/gnn/

echo "== crash-recovery property test (random kill points, under -race)"
go test -race -run 'TestRecoveryKillPoints|TestKillAndRestartRecoversExactState' ./internal/server/

echo "== model-lifecycle gate smoke (degenerate candidate rejected + quarantined, bad swap auto-rolled-back, a swap retires the in-flight audit's tier-3 score, a swapped-in model scores f64 until its own f32 gate passes, after a swap and a rollback to another normalizer the full path, fallback, sweep and embed rebuild score bitwise a fresh server's, the embedding tier keeps serving after a core retrain and rollback, the sweep, the embed rebuild and the lifecycle cohort skip the same profile-less user and the cohort scores bitwise what the sweep remembered, the three passes run beside transaction registration and Advance, every admin POST endpoint answers 405/503 and masks a failing hook as a 500, under -race)"
go test -race -run 'TestGatedRetrainRejectQuarantines|TestAutoRollbackOnErrorRate|TestModelStoreQuarantinedNeverAutoLoaded|TestSwapRetiresInFlightScore|TestSwapScoresF64UntilGateVerdict|TestSwapAndRollbackServeNewNormalizer|TestSweepEngineSkipsMissingProfiles|TestFullGraphPassesUnderConcurrentWrites|TestHTTPAdminEndpointsMethodAndReadiness|TestHTTPAdminErrorsAreMasked' ./internal/server/ ./internal/persist/
go test -race -run 'TestEmbedTierServesAfterRetrainAndRollback' ./internal/core/

echo "== fuzz smoke (WAL payload decoder, 10s)"
go test -fuzz FuzzDecodeBehavior -fuzztime 10s -run 'XXX-none' ./internal/behavior/

echo "== /metrics exposition (golden text; every _bucket exact at the 2^k-1 ns le edges, +Inf = _count; concurrent scrapes vs forced GC count each cycle once; /latency total p50/p99/p999 never above the client-side view, stage _count/_sum = /latency; fallback score measured once; under -race)"
go test -race -count=1 -run 'TestExpositionGolden|TestExpositionBucketsExact|TestHistogramInvariants|TestRuntimeCollectorConcurrentScrapes|TestMetricsEndpoint|TestLatencyWithinClientView|TestStageMetricsMatchLatency|TestFallbackMeasuresScoreOnce' ./internal/telemetry/... ./internal/server/...

echo "== benchmark smoke (compile + one iteration of each hot-path and tensor kernel benchmark, and one HAG training epoch on Tiny)"
go test -short -run 'XXX-none' -bench . -benchtime 1x ./internal/gnn/ ./internal/hag/ ./internal/server/ ./internal/embed/ ./internal/bn/ ./internal/tensor/ ./internal/eval/

echo "== go test (full tier-1)"
go test ./...

echo "== benchmark module (its own go.mod, so neither go build ./... nor tier-1 compiles it)"
(cd benchmark && go vet ./... && go test -short ./...)

echo "CI OK"
