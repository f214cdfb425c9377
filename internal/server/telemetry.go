package server

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"turbo/internal/lifecycle"
	"turbo/internal/persist"
	"turbo/internal/resilience"
	"turbo/internal/telemetry"
)

// TelemetryOptions configures the online stack's telemetry layer. Zero
// values select a 256-trace ring and no slow-audit logging.
type TelemetryOptions struct {
	// TraceRingSize bounds the completed-trace ring served at
	// /debug/traces. 0 selects 256.
	TraceRingSize int
	// SlowThreshold logs the full span breakdown of audits at least this
	// slow. 0 disables slow-audit logging.
	SlowThreshold time.Duration
	// Logger receives slow-audit lines. Nil selects the default logger
	// when SlowThreshold is set.
	Logger *log.Logger
}

// Telemetry is the wired observability surface of one online stack: a
// shared registry plus resolved handles for every hot-path metric, so an
// observation is one atomic operation. All methods are safe on a nil
// receiver (no-op), letting components instrument unconditionally.
//
// Metric catalog (all under GET /metrics):
//
//	turbo_audit_outcomes_total{outcome}   audits by tier + shed/degraded/unknown
//	turbo_audit_stage_seconds{stage}      sample/feature/score/total latency histograms
//	turbo_feature_retries_total           feature-fetch retries
//	turbo_breaker_state                   0 closed, 1 open, 2 half-open, -1 disabled
//	turbo_breaker_transitions_total{to}   breaker state transitions
//	turbo_faults_injected_total{kind}     chaos injections (error/delay/hang)
//	turbo_traces_slow_total               audits over the slow threshold
//	turbo_bn_ingested_logs_total          behavior logs ingested
//	turbo_bn_window_jobs_total            BN window epoch jobs executed
//	turbo_bn_edge_updates_total           edge-weight contributions written
//	turbo_bn_pruned_edges_total           TTL-pruned undirected edges
//	turbo_bn_nodes / turbo_bn_edges       current snapshot size
//	turbo_bn_snapshot_epoch               published snapshot epoch
//	turbo_bn_snapshot_age_seconds         time since the snapshot was published
//	turbo_bn_shard_skew                   max/mean shard node count
//	turbo_wal_appends_total               WAL records written
//	turbo_wal_append_errors_total         WAL writes that failed (durability lost)
//	turbo_wal_corrupt_records_total       WAL records dropped as torn/corrupt
//	turbo_wal_truncated_segments_total    WAL segments deleted after checkpoints
//	turbo_wal_fsync_seconds               WAL fsync latency histogram
//	turbo_checkpoint_seconds              checkpoint capture+write latency histogram
//	turbo_checkpoints_total               checkpoints written (+ _errors_total)
//	turbo_checkpoint_age_seconds          time since the last checkpoint
//	turbo_recovery_replayed_events        WAL records re-applied at boot
//	turbo_retrain_failures_total          retrain passes that errored or panicked
//	turbo_model_artifacts_total{result}   model artifact saves by result
//	turbo_model_gate_total{result}        gate decisions: accepted vs rejected candidates
//	turbo_model_gate_last_auc             last candidate's holdout AUC (-1 before any)
//	turbo_model_gate_last_psi             last candidate/live score-distribution PSI (-1 before any)
//	turbo_model_gate_last_disagreement    last candidate/live decision-flip rate (-1 before any)
//	turbo_model_rollbacks_total           swaps withdrawn by the monitor or an operator
//	turbo_sweep_seconds                   full-graph sweep wall-clock latency histogram
//	turbo_sweep_nodes_total               nodes scored by full-graph sweeps
//	turbo_sweep_inflight                  full-graph sweeps currently running
//	turbo_embedding_serve_total{result}   embedding-tier serve attempts: hit/dirty/miss/fallback
//	turbo_embedding_age_seconds           age of the embedding table rows (-1 = no table)
//	turbo_embedding_dirty_rows            embedding rows currently invalidated by edge deltas
//	turbo_embedding_rows                  rows in the live embedding table (0 = no table)
//	turbo_embedding_refresh_seconds       incremental embedding-refresh latency histogram
//	turbo_embedding_refreshed_rows_total  embedding rows recomputed by incremental refreshes
//	turbo_ingest_lag_seconds              wall clock minus the event-time watermark (freshness)
//	turbo_bn_build_lag_seconds            watermark minus the builder's processed-through frontier
//	turbo_admission_inflight              audits currently holding an admission slot
//	turbo_admission_capacity              admission cap (-1 = unbounded)
//	turbo_admission_occupancy             in-flight fraction of the cap, 0..1
//	turbo_http_inflight_requests          HTTP requests currently being served
//	turbo_go_goroutines                   live goroutines (scrape-time runtime collector)
//	turbo_go_heap_alloc_bytes / _sys / _objects   heap usage
//	turbo_go_gc_cycles_total              completed GC cycles
//	turbo_go_gc_pause_seconds             GC stop-the-world pause histogram
//	turbo_go_sched_latency_p50_seconds    goroutine scheduling latency p50 (+ _p99_)
type Telemetry struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	outcomes    *telemetry.CounterVec
	outcome     [len(outcomeNames)]atomic.Pointer[telemetry.Counter]
	stageSample *telemetry.Histogram
	stageFeat   *telemetry.Histogram
	stageScore  *telemetry.Histogram
	stageTotal  *telemetry.Histogram

	retries     *telemetry.Counter
	transitions *telemetry.CounterVec

	faultErrs, faultDelays, faultHangs *telemetry.Counter

	ingested    *telemetry.Counter
	windowJobs  *telemetry.Counter
	edgeUpdates *telemetry.Counter
	pruned      *telemetry.Counter
	bnNodes     *telemetry.Gauge
	bnEdges     *telemetry.Gauge
	snapEpoch   *telemetry.Gauge

	persistMetrics persist.Metrics
	retrainFails   *telemetry.Counter
	artifactOK     *telemetry.Counter
	artifactErr    *telemetry.Counter

	gateAccepted     *telemetry.Counter
	gateRejected     *telemetry.Counter
	gateAUC          *telemetry.Gauge
	gatePSI          *telemetry.Gauge
	gateDisagreement *telemetry.Gauge
	rollbacks        *telemetry.Counter

	sweepSeconds *telemetry.Histogram
	sweepNodes   *telemetry.Counter

	embedServe      *telemetry.CounterVec
	embedHit        *telemetry.Counter
	embedDirty      *telemetry.Counter
	embedMiss       *telemetry.Counter
	embedFallback   *telemetry.Counter
	embedRefreshSec *telemetry.Histogram
	embedRefreshed  *telemetry.Counter
}

// Audit pipeline stages, the label values of turbo_audit_stage_seconds.
const (
	StageSample  = "sample"
	StageFeature = "feature"
	StageScore   = "score"
	StageTotal   = "total"
)

// outcomeNames are the turbo_audit_outcomes_total label values the audit
// path counts through a cached handle.
var outcomeNames = [...]string{TierEmbed, TierFull, TierFallback, TierCache, TierPrior, "degraded", "shed", "unknown"}

// NewTelemetry builds a registry, registers the full metric catalog and
// resolves the hot-path handles.
func NewTelemetry(opts TelemetryOptions) *Telemetry {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	t := &Telemetry{Registry: reg}

	t.outcomes = reg.CounterVec("turbo_audit_outcomes_total",
		"Audits by serving tier (hag/fallback/cache/prior) plus shed, degraded and unknown outcomes.", "outcome")
	stage := reg.HistogramVec("turbo_audit_stage_seconds",
		"Per-stage audit latency.", "stage")
	t.stageSample = stage.With(StageSample)
	t.stageFeat = stage.With(StageFeature)
	t.stageScore = stage.With(StageScore)
	t.stageTotal = stage.With(StageTotal)

	t.retries = reg.Counter("turbo_feature_retries_total",
		"Feature fetches retried after a transient failure.")
	t.transitions = reg.CounterVec("turbo_breaker_transitions_total",
		"Feature breaker state transitions by destination state.", "to")

	faults := reg.CounterVec("turbo_faults_injected_total",
		"Chaos faults injected by kind.", "kind")
	t.faultErrs = faults.With("error")
	t.faultDelays = faults.With("delay")
	t.faultHangs = faults.With("hang")

	t.ingested = reg.Counter("turbo_bn_ingested_logs_total",
		"Behavior logs ingested by the BN server.")
	t.windowJobs = reg.Counter("turbo_bn_window_jobs_total",
		"BN window epoch jobs executed.")
	t.edgeUpdates = reg.Counter("turbo_bn_edge_updates_total",
		"Edge-weight contributions written during BN construction.")
	t.pruned = reg.Counter("turbo_bn_pruned_edges_total",
		"Undirected edges dropped by TTL pruning.")
	t.bnNodes = reg.Gauge("turbo_bn_nodes", "Nodes in the published BN snapshot.")
	t.bnEdges = reg.Gauge("turbo_bn_edges", "Undirected edges in the published BN snapshot.")
	t.snapEpoch = reg.Gauge("turbo_bn_snapshot_epoch", "Published BN snapshot epoch.")

	t.persistMetrics = persist.Metrics{
		Appends: reg.Counter("turbo_wal_appends_total",
			"WAL records written (behavior logs and transaction registrations)."),
		AppendErrors: reg.Counter("turbo_wal_append_errors_total",
			"WAL writes that failed; the event was applied in memory but durability was lost."),
		FsyncSeconds: reg.Histogram("turbo_wal_fsync_seconds",
			"WAL fsync latency."),
		CheckpointSeconds: reg.Histogram("turbo_checkpoint_seconds",
			"Checkpoint capture + write + truncation latency."),
		Checkpoints: reg.Counter("turbo_checkpoints_total",
			"Full-state checkpoints written."),
		CheckpointErrors: reg.Counter("turbo_checkpoint_errors_total",
			"Checkpoint attempts that failed."),
		Replayed: reg.Counter("turbo_recovery_replayed_events",
			"WAL records re-applied during boot-time recovery."),
		CorruptRecords: reg.Counter("turbo_wal_corrupt_records_total",
			"WAL records dropped as torn or corrupt."),
		TruncatedSegments: reg.Counter("turbo_wal_truncated_segments_total",
			"WAL segments deleted after a covering checkpoint."),
	}
	t.retrainFails = reg.Counter("turbo_retrain_failures_total",
		"Retrain passes that returned an error or panicked.")
	artifacts := reg.CounterVec("turbo_model_artifacts_total",
		"Model artifact save attempts by result.", "result")
	t.artifactOK = artifacts.With("saved")
	t.artifactErr = artifacts.With("error")

	gate := reg.CounterVec("turbo_model_gate_total",
		"Validation-gate decisions on candidate models.", "result")
	t.gateAccepted = gate.With("accepted")
	t.gateRejected = gate.With("rejected")
	t.gateAUC = reg.Gauge("turbo_model_gate_last_auc",
		"Holdout AUC of the last gated candidate (-1 before any evaluation).")
	t.gatePSI = reg.Gauge("turbo_model_gate_last_psi",
		"Candidate/live score-distribution PSI of the last gated candidate (-1 before any evaluation).")
	t.gateDisagreement = reg.Gauge("turbo_model_gate_last_disagreement",
		"Candidate/live decision disagreement rate of the last gated candidate (-1 before any evaluation).")
	t.gateAUC.Set(-1)
	t.gatePSI.Set(-1)
	t.gateDisagreement.Set(-1)
	t.rollbacks = reg.Counter("turbo_model_rollbacks_total",
		"Model swaps withdrawn by the rollback monitor or an operator.")

	t.sweepSeconds = reg.Histogram("turbo_sweep_seconds",
		"Full-graph sweep wall-clock latency.")
	t.sweepNodes = reg.Counter("turbo_sweep_nodes_total",
		"Nodes scored by full-graph sweeps.")

	t.embedServe = reg.CounterVec("turbo_embedding_serve_total",
		"Embedding-tier serve attempts by result: hit (served), dirty, miss, fallback.", "result")
	t.embedHit = t.embedServe.With("hit")
	t.embedDirty = t.embedServe.With("dirty")
	t.embedMiss = t.embedServe.With("miss")
	t.embedFallback = t.embedServe.With("fallback")
	t.embedRefreshSec = reg.Histogram("turbo_embedding_refresh_seconds",
		"Incremental embedding-refresh latency (dirty-ball re-embed).")
	t.embedRefreshed = reg.Counter("turbo_embedding_refreshed_rows_total",
		"Embedding rows recomputed by incremental refreshes.")
	// Default embed gauges: -1/0 until an embed engine re-registers them
	// with live callbacks, so the series exist on every scrape.
	reg.GaugeFunc("turbo_embedding_age_seconds",
		"Seconds since the embedding table rows were built (-1 = no table).",
		func() float64 { return -1 })
	reg.GaugeFunc("turbo_embedding_dirty_rows",
		"Embedding rows currently invalidated by edge deltas.",
		func() float64 { return 0 })
	reg.GaugeFunc("turbo_embedding_rows",
		"Rows in the live embedding table (0 = no table).",
		func() float64 { return 0 })

	logf := func(format string, args ...any) { log.Printf(format, args...) }
	if opts.Logger != nil {
		logf = opts.Logger.Printf
	}
	t.Tracer = telemetry.NewTracer(telemetry.TracerOptions{
		RingSize:      opts.TraceRingSize,
		SlowThreshold: opts.SlowThreshold,
		Logf:          logf,
		SlowCounter: reg.Counter("turbo_traces_slow_total",
			"Audits slower than the slow-trace threshold."),
	})
	return t
}

// Outcome counts one audit outcome: its serving tier, "degraded", "shed"
// or "unknown". A cell is resolved on its first count and cached, so an
// outcome that never happened has no series on /metrics or /stats.
func (t *Telemetry) Outcome(name string) {
	if t == nil {
		return
	}
	for i := range outcomeNames {
		if outcomeNames[i] != name {
			continue
		}
		c := t.outcome[i].Load()
		if c == nil {
			c = t.outcomes.With(name)
			t.outcome[i].Store(c)
		}
		c.Inc()
		return
	}
	t.outcomes.With(name).Inc()
}

// ServedCounts returns every audit outcome counted so far, keyed by
// label value (what /stats reports as served_by).
func (t *Telemetry) ServedCounts() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	t.outcomes.Walk(func(values []string, c *telemetry.Counter) {
		out[values[0]] = c.Value()
	})
	return out
}

// ObserveStage records one latency of an audit stage (StageSample,
// StageFeature, StageScore or StageTotal) into its
// turbo_audit_stage_seconds cell, the histogram /latency also reads.
func (t *Telemetry) ObserveStage(stage string, d time.Duration) {
	if t == nil {
		return
	}
	switch stage {
	case StageSample:
		t.stageSample.Observe(d)
	case StageFeature:
		t.stageFeat.Observe(d)
	case StageScore:
		t.stageScore.Observe(d)
	case StageTotal:
		t.stageTotal.Observe(d)
	}
}

// LatencySummaries returns the §V digests of the audit stages under the
// names /latency reports: sampling, features, predict (the score stage)
// and total. Each summarizes the stage's turbo_audit_stage_seconds cell.
func (t *Telemetry) LatencySummaries() map[string]telemetry.Summary {
	if t == nil {
		return nil
	}
	return map[string]telemetry.Summary{
		"sampling": t.stageSample.Summarize(),
		"features": t.stageFeat.Summarize(),
		"predict":  t.stageScore.Summarize(),
		"total":    t.stageTotal.Summarize(),
	}
}

// Retried counts n feature-fetch retries.
func (t *Telemetry) Retried(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.retries.Add(int64(n))
}

// RegisterBreakerGauge registers turbo_breaker_state as a scrape-time
// gauge (0 closed, 1 open, 2 half-open, -1 disabled), so the reading
// stays correct even when the breaker instance is swapped at config
// time. Re-registering replaces the callback.
func (t *Telemetry) RegisterBreakerGauge(fn func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_breaker_state",
		"Feature breaker state: 0 closed, 1 open, 2 half-open, -1 disabled.", fn)
}

// BreakerHook returns an OnStateChange callback counting transitions
// into turbo_breaker_transitions_total. Attach it to every breaker
// guarding this stack (NewPredictionServer wires the default breaker
// automatically).
func (t *Telemetry) BreakerHook() func(from, to resilience.BreakerState) {
	if t == nil {
		return nil
	}
	return func(from, to resilience.BreakerState) {
		t.transitions.With(to.String()).Inc()
	}
}

// FaultCounters returns the chaos-injection counters, for wiring into a
// resilience.Injector via SetCounters.
func (t *Telemetry) FaultCounters() (errs, delays, hangs *telemetry.Counter) {
	if t == nil {
		return nil, nil, nil
	}
	return t.faultErrs, t.faultDelays, t.faultHangs
}

// WireInjector mirrors inj's injections into the registry. Nil-safe on
// both sides.
func (t *Telemetry) WireInjector(inj *resilience.Injector) {
	if t == nil || inj == nil {
		return
	}
	inj.SetCounters(t.faultErrs, t.faultDelays, t.faultHangs)
}

// IngestedLogs counts n behavior logs into the BN ingest counter.
func (t *Telemetry) IngestedLogs(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.ingested.Add(int64(n))
}

// AdvanceStats mirrors one Advance tick: construction counter deltas and
// the published snapshot's size gauges.
func (t *Telemetry) AdvanceStats(jobs, edgeUpdates, pruned int64, nodes, edges int, epoch uint64) {
	if t == nil {
		return
	}
	t.windowJobs.Add(jobs)
	t.edgeUpdates.Add(edgeUpdates)
	t.pruned.Add(pruned)
	t.bnNodes.Set(float64(nodes))
	t.bnEdges.Set(float64(edges))
	t.snapEpoch.Set(float64(epoch))
}

// RegisterBNGauges registers the scrape-time BN gauges: snapshot age and
// shard skew. Re-registering replaces the callbacks (last stack wins).
func (t *Telemetry) RegisterBNGauges(snapshotAge, shardSkew func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_bn_snapshot_age_seconds",
		"Seconds since the BN read snapshot was published.", snapshotAge)
	t.Registry.GaugeFunc("turbo_bn_shard_skew",
		"Max/mean node count across graph shards (1 = balanced).", shardSkew)
}

// RegisterIngestLagGauges registers the two saturation lags of the
// ingest pipeline: turbo_ingest_lag_seconds (wall clock vs the
// event-time watermark) and turbo_bn_build_lag_seconds (watermark vs
// the builder's processed-through frontier). Re-registering replaces
// the callbacks (last stack wins).
func (t *Telemetry) RegisterIngestLagGauges(ingestLag, buildLag func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_ingest_lag_seconds",
		"Wall clock minus the newest ingested event time; 0 before the first event.", ingestLag)
	t.Registry.GaugeFunc("turbo_bn_build_lag_seconds",
		"Event-time distance between the ingest watermark and the BN builder's processed-through frontier.", buildLag)
}

// RegisterAdmissionGauges registers the admission-semaphore gauges:
// in-flight audits, the cap (-1 = unbounded) and the occupancy fraction.
// Re-registering replaces the callbacks.
func (t *Telemetry) RegisterAdmissionGauges(inflight, capacity, occupancy func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_admission_inflight",
		"Audits currently holding an admission slot.", inflight)
	t.Registry.GaugeFunc("turbo_admission_capacity",
		"Admission cap on concurrent audits (-1 = unbounded).", capacity)
	t.Registry.GaugeFunc("turbo_admission_occupancy",
		"In-flight fraction of the admission cap, 0..1 (0 when unbounded).", occupancy)
}

// RegisterHTTPInflightGauge registers turbo_http_inflight_requests as a
// scrape-time gauge reading the HTTP layer's in-flight request counter.
// Re-registering replaces the callback.
func (t *Telemetry) RegisterHTTPInflightGauge(fn func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_http_inflight_requests",
		"HTTP requests currently being served by the API.", fn)
}

// StartTrace opens an audit trace for user u and attaches it to ctx.
func (t *Telemetry) StartTrace(ctx context.Context, u uint64) (context.Context, *telemetry.Trace) {
	if t == nil {
		return ctx, nil
	}
	return t.Tracer.Start(ctx, u)
}

// FinishTrace stamps, publishes and (when slow) logs the trace.
func (t *Telemetry) FinishTrace(tr *telemetry.Trace) {
	if t == nil {
		return
	}
	t.Tracer.Finish(tr)
}

// WirePersist installs the WAL/checkpoint metric handles on the durable
// state manager and registers the checkpoint-age gauge. Nil-safe on both
// sides.
func (t *Telemetry) WirePersist(m *persist.Manager) {
	if t == nil || m == nil {
		return
	}
	m.SetMetrics(t.persistMetrics)
	t.Registry.GaugeFunc("turbo_checkpoint_age_seconds",
		"Seconds since the last full-state checkpoint (-1 before the first).",
		func() float64 {
			_, at := m.LastCheckpoint()
			if at.IsZero() {
				return -1
			}
			return time.Since(at).Seconds()
		})
}

// ObserveSweep records one completed full-graph sweep: wall-clock
// latency and nodes scored.
func (t *Telemetry) ObserveSweep(elapsed time.Duration, nodes int) {
	if t == nil {
		return
	}
	t.sweepSeconds.Observe(elapsed)
	t.sweepNodes.Add(int64(nodes))
}

// EmbedServed counts one embedding-tier serve attempt by result label
// ("hit", "dirty", "miss", "fallback").
func (t *Telemetry) EmbedServed(result string) {
	if t == nil {
		return
	}
	switch result {
	case "hit":
		t.embedHit.Inc()
	case "dirty":
		t.embedDirty.Inc()
	case "miss":
		t.embedMiss.Inc()
	case "fallback":
		t.embedFallback.Inc()
	default:
		t.embedServe.With(result).Inc()
	}
}

// ObserveEmbedRefresh records one incremental embedding refresh: wall
// latency plus the number of rows recomputed.
func (t *Telemetry) ObserveEmbedRefresh(elapsed time.Duration, rows int) {
	if t == nil {
		return
	}
	t.embedRefreshSec.Observe(elapsed)
	t.embedRefreshed.Add(int64(rows))
}

// RegisterEmbedGauges re-registers the embedding-table gauges with live
// callbacks: row age in seconds (-1 = no table), dirty-row count, and
// table size. Re-registering replaces the boot-time defaults.
func (t *Telemetry) RegisterEmbedGauges(age, dirtyRows, rows func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_embedding_age_seconds",
		"Seconds since the embedding table rows were built (-1 = no table).", age)
	t.Registry.GaugeFunc("turbo_embedding_dirty_rows",
		"Embedding rows currently invalidated by edge deltas.", dirtyRows)
	t.Registry.GaugeFunc("turbo_embedding_rows",
		"Rows in the live embedding table (0 = no table).", rows)
}

// RegisterSweepGauge registers turbo_sweep_inflight as a scrape-time
// gauge reading the sweep engine's in-flight count. Re-registering
// replaces the callback.
func (t *Telemetry) RegisterSweepGauge(fn func() float64) {
	if t == nil {
		return
	}
	t.Registry.GaugeFunc("turbo_sweep_inflight",
		"Full-graph sweeps currently running.", fn)
}

// RetrainFailed counts one failed (errored or panicked) retrain pass.
func (t *Telemetry) RetrainFailed() {
	if t == nil {
		return
	}
	t.retrainFails.Inc()
}

// ArtifactSaved counts one model-artifact save attempt by result.
func (t *Telemetry) ArtifactSaved(ok bool) {
	if t == nil {
		return
	}
	if ok {
		t.artifactOK.Inc()
	} else {
		t.artifactErr.Inc()
	}
}

// GateEvaluated records one validation-gate decision and mirrors the
// candidate's shadow statistics into the last-evaluation gauges.
func (t *Telemetry) GateEvaluated(v lifecycle.Verdict) {
	if t == nil {
		return
	}
	if v.Accepted {
		t.gateAccepted.Inc()
	} else {
		t.gateRejected.Inc()
	}
	if h := v.Report.Holdout; h != nil {
		t.gateAUC.Set(h.AUC)
	}
	if c := v.Report.Cohort; c != nil {
		t.gatePSI.Set(c.PSI)
		t.gateDisagreement.Set(c.Disagreement)
	}
}

// RolledBack counts one withdrawn model swap.
func (t *Telemetry) RolledBack() {
	if t == nil {
		return
	}
	t.rollbacks.Inc()
}
