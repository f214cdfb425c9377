// Package server implements the online anti-fraud stack of Fig. 2: a BN
// server that ingests behavior logs in real time and maintains the BN
// with scheduled window jobs, a feature service, and a prediction server
// that samples a computation subgraph, fetches features, and runs the
// HAG model — all behind an HTTP API. Per-module latencies are recorded
// for the §V / Fig. 8a response-time study.
//
// The audit path is fault tolerant: every stage runs under an optional
// deadline, feature fetches are retried and guarded by a circuit
// breaker, and when the full path cannot answer in budget the prediction
// server walks a degradation ladder — full HAG → feature-only fallback
// model → cached last-known score or the prior — instead of failing the
// audit (see internal/resilience).
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/metrics"
	"turbo/internal/persist"
	"turbo/internal/resilience"
	"turbo/internal/store"
	"turbo/internal/telemetry"
	"turbo/internal/tensor"
)

// BNServer ingests logs and serves computation subgraphs. Writes (the
// scheduled window jobs) mutate the sharded live graph; the prediction
// read path serves from an immutable snapshot republished after every
// Advance tick, so sampling acquires no graph lock at all.
type BNServer struct {
	mu      sync.Mutex // serializes Advance (window-job scheduling)
	store   *behavior.Store
	builder *bn.Builder
	g       *graph.Graph
	snap    atomic.Pointer[graph.Snapshot]
	// txnMu guards hasTxn. hasTxn marks users with transactions; only
	// these belong to computation subgraphs (§III-A). Sampling reads it
	// concurrently with RegisterTransaction, so every access takes txnMu:
	// TxnFilter per call, a sample once for its whole walk.
	txnMu  sync.RWMutex
	hasTxn map[behavior.UserID]bool

	// viewWrap, when set, decorates the read view every Sample runs
	// against. The fault injector uses it to add latency and hangs to
	// the sampling path. Install with SetViewWrapper before serving.
	viewWrap func(graph.GraphView) graph.GraphView

	// tel, when set, receives ingest/advance pipeline metrics. Install
	// with SetTelemetry before serving. snapPublished is the wall-clock
	// publish time of the current snapshot (unix nanos) feeding the
	// snapshot-age gauge. lastStats (guarded by mu) tracks the builder
	// totals already mirrored into telemetry counters.
	tel           *Telemetry
	snapPublished atomic.Int64
	lastStats     bn.BuildStats

	// watermark is the event-time high-water mark (unix nanos) across
	// every ingested, replayed or restored log — the numerator of the
	// turbo_ingest_lag_seconds gauge. 0 until the first event.
	watermark atomic.Int64

	// journal, when set, write-ahead-logs every ingested event before it
	// is applied in memory, making the BN state recoverable after a
	// crash. Install with SetJournal before serving.
	journal *persist.Manager

	// prePublish, when set, runs on every freshly taken snapshot BEFORE
	// it is stored as the read snapshot. The embed engine hooks it to
	// flush pending edge-delta dirty marks (mark-before-publish): a
	// reader can never observe a snapshot whose deltas have not yet been
	// reflected in the embedding dirty set. Install with SetPrePublish
	// before serving.
	prePublish func(*graph.Snapshot)

	SampleHops      int
	MaxNeighbors    int
	SamplingLatency *metrics.LatencyRecorder
}

// NewBNServer builds a BN server anchored at t0.
func NewBNServer(cfg bn.Config, t0 time.Time) (*BNServer, error) {
	store := behavior.NewStore()
	g := graph.New(behavior.NumTypes)
	builder, err := bn.NewBuilder(cfg, store, g, t0)
	if err != nil {
		return nil, err
	}
	s := &BNServer{
		store:           store,
		builder:         builder,
		g:               g,
		hasTxn:          make(map[behavior.UserID]bool),
		SampleHops:      2,
		MaxNeighbors:    32,
		SamplingLatency: metrics.NewLatencyRecorder(),
	}
	s.snap.Store(g.Snapshot())
	s.snapPublished.Store(time.Now().UnixNano())
	return s, nil
}

// SetTelemetry installs the shared telemetry layer and registers the
// scrape-time BN gauges (snapshot age, shard skew). Call before serving;
// installation is not synchronized with in-flight requests.
func (s *BNServer) SetTelemetry(tel *Telemetry) {
	s.tel = tel
	tel.RegisterBNGauges(
		func() float64 {
			ns := s.snapPublished.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		},
		s.g.ShardSkew,
	)
	tel.RegisterIngestLagGauges(
		// Ingest lag: wall clock minus the event-time watermark. 0 before
		// the first event; clamped at 0 for future-stamped events.
		func() float64 {
			ns := s.watermark.Load()
			if ns == 0 {
				return 0
			}
			if lag := time.Since(time.Unix(0, ns)).Seconds(); lag > 0 {
				return lag
			}
			return 0
		},
		// Build lag: event-time distance between the watermark and the
		// builder's processed-through frontier — how far edge
		// materialization trails ingestion. 0 before the first event.
		func() float64 {
			ns := s.watermark.Load()
			if ns == 0 {
				return 0
			}
			if lag := time.Unix(0, ns).Sub(s.builder.ProcessedThrough()).Seconds(); lag > 0 {
				return lag
			}
			return 0
		},
	)
}

// Telemetry returns the installed telemetry layer (nil before
// SetTelemetry).
func (s *BNServer) Telemetry() *Telemetry { return s.tel }

// SetJournal installs the durable-state manager: every subsequent
// Ingest/IngestBatch/RegisterTransaction is write-ahead-logged before it
// is applied in memory, and the manager's checkpoints capture this
// server's full state. Call before serving; installation is not
// synchronized with in-flight ingests.
func (s *BNServer) SetJournal(j *persist.Manager) {
	s.journal = j
	if j != nil {
		j.SetSource(s.captureState)
	}
}

// Journal returns the installed durable-state manager (nil when the
// server runs memory-only).
func (s *BNServer) Journal() *persist.Manager { return s.journal }

// Ingest stores one behavior log. Edges materialize when the scheduled
// window jobs run (Advance), in parallel to prediction requests, so log
// ingestion never sits on the prediction path. With a journal installed
// the log is write-ahead-logged first; a WAL failure costs that event's
// durability, never its ingestion.
func (s *BNServer) Ingest(l behavior.Log) {
	if s.journal != nil {
		s.journal.AppendLog(l, func() { s.applyLog(l) })
		return
	}
	s.applyLog(l)
}

// IngestBatch bulk-loads logs (e.g. a historical backfill).
func (s *BNServer) IngestBatch(logs []behavior.Log) {
	if s.journal != nil {
		s.journal.AppendLogBatch(logs, func() { s.applyLogBatch(logs) })
		return
	}
	s.applyLogBatch(logs)
}

// RegisterTransaction marks a user as having a transaction, making it
// eligible for computation subgraphs.
func (s *BNServer) RegisterTransaction(u behavior.UserID) {
	if s.journal != nil {
		s.journal.AppendTxn(u, func() { s.applyTxn(u) })
		return
	}
	s.applyTxn(u)
}

// applyLog is the in-memory half of Ingest.
func (s *BNServer) applyLog(l behavior.Log) {
	s.store.Append(l)
	s.noteEvent(l.Time)
	s.tel.IngestedLogs(1)
}

// applyLogBatch is the in-memory half of IngestBatch.
func (s *BNServer) applyLogBatch(logs []behavior.Log) {
	s.store.AppendBatch(logs)
	s.noteEventBatch(logs)
	s.tel.IngestedLogs(len(logs))
}

// noteEvent advances the event-time watermark to t if newer (CAS-max:
// batches and replays may arrive out of event order).
func (s *BNServer) noteEvent(t time.Time) {
	ns := t.UnixNano()
	for {
		cur := s.watermark.Load()
		if ns <= cur || s.watermark.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// noteEventBatch advances the watermark past every log in one CAS-max.
func (s *BNServer) noteEventBatch(logs []behavior.Log) {
	var newest time.Time
	for _, l := range logs {
		if l.Time.After(newest) {
			newest = l.Time
		}
	}
	if !newest.IsZero() {
		s.noteEvent(newest)
	}
}

// EventWatermark returns the newest event time seen by ingestion (zero
// before the first event) — the freshness anchor of the ingest-lag
// gauge.
func (s *BNServer) EventWatermark() time.Time {
	ns := s.watermark.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// applyTxn is the in-memory half of RegisterTransaction.
func (s *BNServer) applyTxn(u behavior.UserID) {
	s.txnMu.Lock()
	s.hasTxn[u] = true
	s.txnMu.Unlock()
	s.g.AddNode(graph.NodeID(u))
}

// captureState gathers the server's full state for a checkpoint. It runs
// under the journal's append lock (no event can land mid-capture) and
// additionally takes s.mu so no Advance is in flight: the captured
// graph, window cursors and log store are one consistent cut.
func (s *BNServer) captureState() *persist.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txnMu.RLock()
	users := make([]behavior.UserID, 0, len(s.hasTxn))
	for u := range s.hasTxn {
		users = append(users, u)
	}
	s.txnMu.RUnlock()
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return &persist.State{
		CapturedAt:   time.Now(),
		NumEdgeTypes: s.g.NumEdgeTypes(),
		Nodes:        s.g.Nodes(),
		Edges:        s.g.Edges(),
		NextEpochs:   s.builder.NextEpochs(),
		TxnUsers:     users,
		Logs:         s.store.Dump(),
	}
}

// RestoreCheckpoint implements persist.Applier: it installs a checkpoint
// into this (fresh, boot-time) server. Each checkpointed edge carries
// its full accumulated weight, so a single AddEdgeWeight per edge
// reproduces the graph exactly.
func (s *BNServer) RestoreCheckpoint(st *persist.State) error {
	if st.NumEdgeTypes != s.g.NumEdgeTypes() {
		return fmt.Errorf("server: checkpoint has %d edge types, graph has %d",
			st.NumEdgeTypes, s.g.NumEdgeTypes())
	}
	if err := s.builder.RestoreNextEpochs(st.NextEpochs); err != nil {
		return err
	}
	for _, n := range st.Nodes {
		s.g.AddNode(n)
	}
	for _, e := range st.Edges {
		if err := s.g.AddEdgeWeight(e.Type, e.U, e.V, e.Weight, e.ExpireAt); err != nil {
			return fmt.Errorf("server: restore edge (%d,%d,%d): %w", e.Type, e.U, e.V, err)
		}
	}
	s.txnMu.Lock()
	for _, u := range st.TxnUsers {
		s.hasTxn[u] = true
	}
	s.txnMu.Unlock()
	s.store.AppendBatch(st.Logs)
	s.noteEventBatch(st.Logs)
	return nil
}

// ReplayLog implements persist.Applier: re-apply one WAL log record
// without re-journaling it (it is already on disk).
func (s *BNServer) ReplayLog(l behavior.Log) {
	s.store.Append(l)
	s.noteEvent(l.Time)
}

// ReplayTxn implements persist.Applier.
func (s *BNServer) ReplayTxn(u behavior.UserID) { s.applyTxn(u) }

// RefreshSnapshot republishes the read snapshot from the live graph
// (recovery mutates the graph without going through Advance).
func (s *BNServer) RefreshSnapshot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.g.Snapshot()
	if s.prePublish != nil {
		s.prePublish(snap)
	}
	s.snap.Store(snap)
	s.snapPublished.Store(time.Now().UnixNano())
}

// SetPrePublish installs a hook invoked on every new snapshot before it
// becomes the read snapshot (nil removes it). Call before serving;
// installation is not synchronized with in-flight Advances.
func (s *BNServer) SetPrePublish(fn func(*graph.Snapshot)) { s.prePublish = fn }

// Recover rebuilds this server from the installed journal — newest valid
// checkpoint plus WAL tail — and republishes the read snapshot. It must
// run on a fresh server before any ingestion or Advance.
func (s *BNServer) Recover() (persist.RecoveryStats, error) {
	if s.journal == nil {
		return persist.RecoveryStats{}, fmt.Errorf("server: no journal installed")
	}
	rs, err := s.journal.Recover(s)
	if err != nil {
		return rs, err
	}
	s.RefreshSnapshot()
	return rs, nil
}

// Advance runs all window jobs due by now (the periodic scheduler tick),
// republishes the read snapshot so subsequent predictions see the new
// epoch, and returns the number of epoch jobs executed.
func (s *BNServer) Advance(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := s.builder.Advance(now)
	snap := s.g.Snapshot()
	if s.prePublish != nil {
		s.prePublish(snap)
	}
	s.snap.Store(snap)
	s.snapPublished.Store(time.Now().UnixNano())
	if s.tel != nil {
		st := s.builder.Stats()
		stats := snap.Stats()
		s.tel.AdvanceStats(
			st.Jobs-s.lastStats.Jobs,
			st.EdgeUpdates-s.lastStats.EdgeUpdates,
			st.Pruned-s.lastStats.Pruned,
			stats.Nodes, stats.Edges, snap.Epoch())
		s.lastStats = st
	}
	return jobs
}

// Graph exposes the underlying live BN (shared; treat as read-mostly).
func (s *BNServer) Graph() *graph.Graph { return s.g }

// Snapshot returns the read snapshot predictions are currently served
// from (the epoch published by the last Advance).
func (s *BNServer) Snapshot() *graph.Snapshot { return s.snap.Load() }

// View returns the read view used to serve user u: normally the current
// lock-free snapshot; the live graph only when u was registered after
// the last Advance tick and is therefore not in the snapshot yet.
func (s *BNServer) View(u behavior.UserID) graph.GraphView {
	if snap := s.snap.Load(); snap != nil && snap.HasNode(graph.NodeID(u)) {
		return snap
	}
	return s.g
}

// SetViewWrapper installs a decorator applied to the read view on the
// sampling path (nil removes it). Call before serving: installation is
// not synchronized with in-flight samples.
func (s *BNServer) SetViewWrapper(w func(graph.GraphView) graph.GraphView) { s.viewWrap = w }

// Store exposes the log store (used by the feature service).
func (s *BNServer) Store() *behavior.Store { return s.store }

// TxnFilter returns the audit-eligibility filter — users with a
// registered transaction (§III-A). The closure is safe for concurrent
// use; the sweep engine applies it to the full snapshot node set the
// same way Sample applies it to a neighborhood.
func (s *BNServer) TxnFilter() func(graph.NodeID) bool {
	return func(n graph.NodeID) bool {
		s.txnMu.RLock()
		ok := s.hasTxn[behavior.UserID(n)]
		s.txnMu.RUnlock()
		return ok
	}
}

// Sample extracts the full computation subgraph of user u (every induced
// edge: what DOT export and an all-rows reference forward need),
// restricted to users with transactions, recording the sampling latency
// (Fig. 8a). When u is in the current snapshot (the steady state),
// sampling walks the immutable epoch and performs zero graph mutex
// acquisitions.
func (s *BNServer) Sample(u behavior.UserID) *graph.Subgraph { return s.sample(u, 0) }

// sampleView returns the view u is sampled from: View(u), decorated by
// the view wrapper when one is installed.
func (s *BNServer) sampleView(u behavior.UserID) graph.GraphView {
	view := s.View(u)
	if s.viewWrap != nil {
		view = s.viewWrap(view)
	}
	return view
}

// sample draws u's subgraph, cut to the computation cone of a
// layers-deep model when layers is positive (graph.SampleOptions.Layers).
func (s *BNServer) sample(u behavior.UserID, layers int) *graph.Subgraph {
	return s.sampleFrom(s.sampleView(u), u, layers)
}

// sampleFrom is sample on a view already chosen.
func (s *BNServer) sampleFrom(view graph.GraphView, u behavior.UserID, layers int) *graph.Subgraph {
	var sg *graph.Subgraph
	s.SamplingLatency.Time(func() {
		// One txnMu.RLock for the whole walk, not one per neighbor. It is
		// taken at the first neighbor the walk asks about rather than up
		// front, so a delay injected by a wrapped view is not spent
		// holding it against RegisterTransaction.
		locked := false
		defer func() {
			if locked {
				s.txnMu.RUnlock()
			}
		}()
		sg = view.Sample(graph.NodeID(u), graph.SampleOptions{
			Hops:         s.SampleHops,
			MaxNeighbors: s.MaxNeighbors,
			Layers:       layers,
			Filter: func(n graph.NodeID) bool {
				if !locked {
					s.txnMu.RLock()
					locked = true
				}
				return s.hasTxn[behavior.UserID(n)]
			},
		})
	})
	return sg
}

// SampleCtx is Sample under a deadline.
func (s *BNServer) SampleCtx(ctx context.Context, u behavior.UserID) (*graph.Subgraph, error) {
	return s.SampleConeCtx(ctx, u, 0)
}

// SampleConeCtx draws, under a deadline, the sample the audit path
// scores: u's subgraph cut to the computation cone of a layers-deep
// model (0 draws it in full). It runs inline when ctx cannot expire or
// the view cannot block: an undecorated snapshot, which is in memory and
// lock-free. Otherwise (the live graph, or a wrapped view that may
// inject delays) sampling runs in a goroutine and SampleConeCtx returns
// ctx.Err() as soon as the deadline fires, leaving the (possibly hung)
// sample to finish in the background — slow graph reads cost the audit
// its sampling budget, never the whole request.
func (s *BNServer) SampleConeCtx(ctx context.Context, u behavior.UserID, layers int) (*graph.Subgraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("server: sampling user %d: %w", u, err)
	}
	view := s.sampleView(u)
	if _, snap := view.(*graph.Snapshot); snap || ctx.Done() == nil {
		return s.sampleFrom(view, u, layers), nil
	}
	ch := make(chan *graph.Subgraph, 1)
	go func() { ch <- s.sampleFrom(view, u, layers) }()
	select {
	case sg := <-ch:
		return sg, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("server: sampling user %d: %w", u, ctx.Err())
	}
}

// Serving tiers of the degradation ladder, reported in
// Prediction.ServedBy and counted per audit.
const (
	// TierEmbed is the lambda tier above TierFull: final aggregation
	// layer over precomputed penultimate embeddings, served only when
	// the target's whole aggregation star is clean for the live model.
	TierEmbed = "embed"
	// TierFull is the healthy path: HAG over the sampled subgraph.
	TierFull = "hag"
	// TierFallback is the feature-only fallback model over the target
	// user's own vector (sampling or the feature fan-out failed).
	TierFallback = "fallback"
	// TierCache is the last-known score of the user (total feature
	// outage, but the user was scored before).
	TierCache = "cache"
	// TierPrior is the configured prior probability (total feature
	// outage, never-scored user).
	TierPrior = "prior"
)

// ErrUnknownUser marks an audit of a user the feature store has no
// profile for; the HTTP layer maps it to 404. Degraded tiers are not
// consulted: no tier can say anything about a user that does not exist.
var ErrUnknownUser = errors.New("server: unknown user")

// Prediction is the result of one audit request.
type Prediction struct {
	User          behavior.UserID `json:"user"`
	Probability   float64         `json:"probability"`
	Fraud         bool            `json:"fraud"`
	SubgraphNodes int             `json:"subgraph_nodes"`
	// SubgraphEdges counts the directed typed edges of the sample that was
	// scored: those into the target's computation cone, not every edge
	// among the sampled nodes (GET /subgraph still draws all of them).
	SubgraphEdges int `json:"subgraph_edges"`

	// ServedBy names the degradation-ladder tier that produced the
	// score; Degraded is true for every tier below TierFull.
	ServedBy string `json:"served_by"`
	Degraded bool   `json:"degraded"`

	SampleLatency  time.Duration `json:"sample_latency_ns"`
	FeatureLatency time.Duration `json:"feature_latency_ns"`
	PredictLatency time.Duration `json:"predict_latency_ns"`
	TotalLatency   time.Duration `json:"total_latency_ns"`
}

// StageDeadlines bounds each stage of the audit path. Zero fields mean
// no deadline for that stage; Total additionally caps the whole audit.
type StageDeadlines struct {
	Sample  time.Duration
	Feature time.Duration
	Score   time.Duration
	Total   time.Duration
}

// Fallback is the feature-only model of the degradation ladder: a
// baselines.Classifier-style scorer over normalized feature rows (LR or
// GBDT trained offline alongside HAG).
type Fallback interface {
	PredictProba(x *tensor.Matrix) []float64
}

// PredictionServer runs the classification model over sampled subgraphs
// with features from the feature service. The model is hot-swappable by
// the ModelManager; swaps never block in-flight audits for long.
//
// The exported resilience knobs (Breaker, Retry, Admission, Deadlines,
// Fallback, Prior) are read on every audit; configure them before
// serving.
type PredictionServer struct {
	bn    *BNServer
	mu    sync.RWMutex
	feats feature.Source
	model gnn.Model
	// Normalizer maps raw feature vectors to model inputs (z-scoring
	// fitted at training time). Nil means identity. Set it via SwapModel
	// or before serving.
	Normalizer func([]float64) []float64
	Threshold  float64

	// Breaker guards the feature service: after FailureThreshold
	// consecutive failures the fan-out fails fast until the cool-down
	// elapses. Nil disables breaking.
	Breaker *resilience.Breaker
	// Retry bounds per-vector retries for transient feature errors.
	Retry resilience.RetryConfig
	// Admission caps concurrent audits; excess load is shed with
	// resilience.ErrOverloaded (HTTP 429). Nil means unbounded.
	Admission *resilience.Admission
	// Deadlines are the per-stage audit budgets.
	Deadlines StageDeadlines
	// Fallback is the feature-only tier-2 model; nil skips that tier.
	Fallback Fallback
	// Prior is the tier-3 score for users with no cached score (the base
	// fraud rate). NewPredictionServer sets 0.05.
	Prior float64
	// Embed, when set, is the lambda serving tier consulted before the
	// full sampled-subgraph path: score from precomputed penultimate
	// embeddings when the target's neighborhood is clean, fall through
	// otherwise. NewEmbedEngine installs it.
	Embed *EmbedEngine

	// Served counts audits by serving tier, plus "degraded", "shed" and
	// "unknown" outcomes. It is backed by the telemetry registry's
	// turbo_audit_outcomes_total family, so /stats and /metrics report
	// the same counts.
	Served *metrics.CounterSet

	// Tel is the shared telemetry layer (registry, stage histograms,
	// audit tracer). NewPredictionServer adopts the BN server's layer or
	// creates one; never nil afterwards, but all uses are nil-safe.
	Tel *Telemetry

	// lastMu guards the tier-3 cache and its version tag. lastVersion is
	// the artifact version the cached scores were computed under; a model
	// swap or rollback drops the cache so a feature outage never serves
	// scores from a retired model. maxVersion tracks the highest version
	// ever seen so synthetic bumps (swaps without an artifact store)
	// never collide with a real artifact version.
	lastMu      sync.RWMutex
	last        map[behavior.UserID]float64 // last-known scores (tier 3)
	lastVersion int
	maxVersion  int

	// f32Enabled flips the opt-in float32 scoring path; f32Gate is the
	// per-model tolerance validation ConfigureF32 installed, re-run on
	// every SwapModel. Gate failure falls the server back to float64.
	f32Enabled atomic.Bool
	f32Gate    func(m gnn.Model) (maxDelta float64, ok bool)

	FeatureLatency *metrics.LatencyRecorder
	PredictLatency *metrics.LatencyRecorder
	TotalLatency   *metrics.LatencyRecorder
}

// NewPredictionServer wires the three online modules together with the
// default resilience posture: retries on, breaker on with defaults, no
// admission cap, no deadlines, no fallback model. With a healthy feature
// service the audit path is identical to the resilience-free pipeline.
func NewPredictionServer(bnServer *BNServer, feats feature.Source, model gnn.Model, threshold float64) *PredictionServer {
	tel := bnServer.Telemetry()
	if tel == nil {
		tel = NewTelemetry(TelemetryOptions{})
		bnServer.SetTelemetry(tel)
	}
	p := &PredictionServer{
		bn:        bnServer,
		feats:     feats,
		model:     model,
		Threshold: threshold,
		Breaker: resilience.NewBreaker(resilience.BreakerConfig{
			OnStateChange: tel.BreakerHook(),
		}),
		Retry:          resilience.RetryConfig{Attempts: 2, BaseDelay: 5 * time.Millisecond},
		Prior:          0.05,
		Served:         metrics.NewCounterSetVec(tel.Outcomes()),
		Tel:            tel,
		last:           make(map[behavior.UserID]float64),
		FeatureLatency: metrics.NewLatencyRecorder(),
		PredictLatency: metrics.NewLatencyRecorder(),
		TotalLatency:   metrics.NewLatencyRecorder(),
	}
	tel.RegisterBreakerGauge(func() float64 {
		if p.Breaker == nil {
			return -1
		}
		return float64(p.Breaker.State())
	})
	tel.RegisterAdmissionGauges(
		func() float64 { return float64(p.Admission.InFlight()) },
		func() float64 {
			if p.Admission == nil {
				return -1
			}
			return float64(p.Admission.Cap())
		},
		func() float64 { return p.Admission.Occupancy() },
	)
	return p
}

// SwapModel atomically replaces the serving model and normalizer (the
// model management module calls this after each offline retrain). When
// the float32 path was configured, the new model is re-validated against
// the tolerance gate and f32 serving is disabled if it fails — a model
// that quantizes badly must not serve quantized.
func (p *PredictionServer) SwapModel(m gnn.Model, normalizer func([]float64) []float64) {
	p.mu.Lock()
	p.model = m
	p.Normalizer = normalizer
	gate := p.f32Gate
	p.mu.Unlock()
	// Every swap retires the previous model's cached scores and moves the
	// version tag to a never-before-used value; the model manager pins
	// the real artifact version right after (SetModelVersion).
	p.lastMu.Lock()
	p.maxVersion++
	p.lastVersion = p.maxVersion
	p.last = make(map[behavior.UserID]float64)
	p.lastMu.Unlock()
	if gate != nil {
		maxDelta, ok := gate(m)
		p.f32Enabled.Store(ok)
		if !ok {
			log.Printf("server: f32 gate failed on swapped model %s (max delta %.3g), serving float64", m.Name(), maxDelta)
		}
	}
}

// ConfigureF32 installs the float32 tolerance gate (typically a closure
// over gnn.ValidateF32 and a held-out validation batch) and runs it
// against the current model, enabling float32 scoring when it passes.
// It returns the gate's verdict. A nil validate disables the path.
func (p *PredictionServer) ConfigureF32(validate func(m gnn.Model) (maxDelta float64, ok bool)) (float64, bool) {
	p.mu.Lock()
	p.f32Gate = validate
	m := p.model
	p.mu.Unlock()
	if validate == nil || m == nil {
		p.f32Enabled.Store(false)
		return 0, false
	}
	maxDelta, ok := validate(m)
	p.f32Enabled.Store(ok)
	return maxDelta, ok
}

// F32Enabled reports whether audits currently score through the float32
// path.
func (p *PredictionServer) F32Enabled() bool { return p.f32Enabled.Load() }

// SetFeatureSource replaces the feature source (the fault injector wraps
// the real service through this).
func (p *PredictionServer) SetFeatureSource(src feature.Source) {
	p.mu.Lock()
	p.feats = src
	p.mu.Unlock()
}

// Serving returns the feature source, model and normalizer currently
// serving audits, as one consistent read (the same triple PredictCtx
// snapshots at the top of every audit).
func (p *PredictionServer) Serving() (feature.Source, gnn.Model, func([]float64) []float64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.feats, p.model, p.Normalizer
}

// RememberScores bulk-installs freshly computed scores into the
// last-known-score cache (tier 3 of the degradation ladder) under the
// current artifact version.
func (p *PredictionServer) RememberScores(users []behavior.UserID, probs []float64) {
	p.lastMu.Lock()
	for i, u := range users {
		p.last[u] = probs[i]
	}
	p.lastMu.Unlock()
}

// RememberScoresFor is RememberScores tagged with the artifact version
// the scores were computed under: if a swap or rollback moved the
// serving version while the sweep ran, the batch is dropped instead of
// poisoning the new model's cache with the old model's scores.
func (p *PredictionServer) RememberScoresFor(users []behavior.UserID, probs []float64, version int) {
	p.lastMu.Lock()
	defer p.lastMu.Unlock()
	if version != p.lastVersion {
		return
	}
	for i, u := range users {
		p.last[u] = probs[i]
	}
}

// SetModelVersion pins the serving artifact version (the model manager
// calls it after each accepted swap, rollback, or boot load). A version
// change drops the tier-3 cache — its scores belong to the previous
// artifact.
func (p *PredictionServer) SetModelVersion(v int) {
	p.lastMu.Lock()
	if v != p.lastVersion {
		p.lastVersion = v
		p.last = make(map[behavior.UserID]float64)
	}
	if v > p.maxVersion {
		p.maxVersion = v
	}
	p.lastMu.Unlock()
}

// ModelVersion returns the serving artifact version tag. Engines
// snapshot it before a long scoring pass and hand it back through
// RememberScoresFor / embed.Build so stale batches are rejected.
func (p *PredictionServer) ModelVersion() int {
	p.lastMu.RLock()
	defer p.lastMu.RUnlock()
	return p.lastVersion
}

// ModelLoaded reports whether a serving model is attached (readiness).
func (p *PredictionServer) ModelLoaded() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.model != nil
}

// BreakerState names the breaker state for /readyz and /stats
// ("disabled" when no breaker is configured).
func (p *PredictionServer) BreakerState() string {
	if p.Breaker == nil {
		return "disabled"
	}
	return p.Breaker.State().String()
}

// ServedCounts returns the per-tier audit counters.
func (p *PredictionServer) ServedCounts() map[string]int64 { return p.Served.Snapshot() }

// Predict serves one audit request with no caller deadline.
func (p *PredictionServer) Predict(u behavior.UserID, at time.Time) (Prediction, error) {
	return p.PredictCtx(context.Background(), u, at)
}

// PredictCtx serves one audit request end to end: subgraph sampling (BN
// server), feature retrieval (feature module), HAG inference (prediction
// server), mirroring the numbered flow of Fig. 2. Under partial failure
// it degrades tier by tier instead of erroring:
//
//	tier 1 (TierFull):     HAG over the sampled subgraph
//	tier 2 (TierFallback): feature-only model over the target's vector,
//	                       when sampling or the feature fan-out timed
//	                       out, errored, or hit an open breaker
//	tier 3 (TierCache /    the user's last-known score, or the prior —
//	        TierPrior):    total feature outage
//
// Only two conditions surface as errors: ErrUnknownUser (no profile
// exists for u) and resilience.ErrOverloaded (admission shed the audit).
func (p *PredictionServer) PredictCtx(ctx context.Context, u behavior.UserID, at time.Time) (Prediction, error) {
	ctx, trace := p.Tel.StartTrace(ctx, uint64(u))
	defer func() {
		trace.SetBreaker(p.BreakerState())
		p.Tel.FinishTrace(trace)
	}()
	if p.Admission != nil {
		if !p.Admission.TryAcquire() {
			p.Served.Inc("shed")
			err := fmt.Errorf("server: audit of user %d: %w", u, resilience.ErrOverloaded)
			trace.SetTier("shed", false)
			trace.SetError(err)
			return Prediction{}, err
		}
		defer p.Admission.Release()
	}
	p.mu.RLock()
	feats, model, normalizer := p.feats, p.model, p.Normalizer
	p.mu.RUnlock()

	start := time.Now()
	if p.Embed != nil && model != nil {
		if pred, ok := p.Embed.TryPredict(u, model, p.Threshold); ok {
			p.finish(&pred, u, start, true)
			trace.SetTier(pred.ServedBy, pred.Degraded)
			return pred, nil
		}
	}
	// The total deadline is armed only on the full path: an embed hit
	// has nothing to bound, and arming a timer is a large share of its
	// cost.
	// The budget still counts from start.
	if p.Deadlines.Total > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(p.Deadlines.Total))
		defer cancel()
	}
	pred, err := p.predictFull(ctx, feats, model, normalizer, u, at)
	if err == nil {
		p.finish(&pred, u, start, true)
		trace.SetTier(pred.ServedBy, pred.Degraded)
		return pred, nil
	}
	if errors.Is(err, ErrUnknownUser) {
		p.Served.Inc("unknown")
		trace.SetTier("unknown", false)
		trace.SetError(err)
		return Prediction{}, err
	}

	pred, ferr := p.predictFallback(ctx, feats, normalizer, u, at)
	if ferr == nil {
		p.finish(&pred, u, start, true)
		trace.SetTier(pred.ServedBy, pred.Degraded)
		return pred, nil
	}
	if errors.Is(ferr, ErrUnknownUser) {
		p.Served.Inc("unknown")
		trace.SetTier("unknown", false)
		trace.SetError(ferr)
		return Prediction{}, ferr
	}

	pred = p.predictStatic(u)
	p.finish(&pred, u, start, false)
	trace.SetTier(pred.ServedBy, pred.Degraded)
	return pred, nil
}

// finish stamps the end-to-end latency, bumps the tier counters and
// stage histogram, records the tier on the trace and, for genuinely
// computed scores, remembers the result for tier 3.
func (p *PredictionServer) finish(pred *Prediction, u behavior.UserID, start time.Time, remember bool) {
	pred.TotalLatency = time.Since(start)
	p.TotalLatency.Record(pred.TotalLatency)
	p.Tel.ObserveStage(StageTotal, pred.TotalLatency)
	p.Served.Inc(pred.ServedBy)
	if pred.Degraded {
		p.Served.Inc("degraded")
	}
	if remember {
		p.lastMu.Lock()
		p.last[u] = pred.Probability
		p.lastMu.Unlock()
	}
}

// gather fetches the vectors of users through the breaker and the retry
// policy: one breaker Allow/Record and one retry loop per call, however
// many rows, with each retry resuming at the failing row. It returns the
// lowest failing row with its error. A missing profile is a definitive
// answer, not a dependency failure: it is never retried and never trips
// the breaker.
func (p *PredictionServer) gather(ctx context.Context, feats feature.Source, users []behavior.UserID, at time.Time, fn func(i int, vec []float64)) (int, error) {
	if p.Breaker != nil {
		if err := p.Breaker.Allow(); err != nil {
			return 0, err
		}
	}
	done, attempts := 0, 0
	err := resilience.Retry(ctx, p.Retry, func(ctx context.Context) error {
		attempts++
		n, err := feats.Gather(ctx, users[done:], at, func(i int, vec []float64) { fn(done+i, vec) })
		done += n
		if errors.Is(err, store.ErrNotFound) {
			return resilience.Permanent(err)
		}
		return err
	})
	if attempts > 1 {
		p.Tel.Retried(attempts - 1)
		telemetry.TraceFrom(ctx).AddRetries(attempts - 1)
	}
	if p.Breaker != nil {
		p.Breaker.Record(err == nil || errors.Is(err, store.ErrNotFound))
	}
	return done, err
}

// fanoutError wraps a gather failure the way the audit path reports it:
// a missing profile for the target user is ErrUnknownUser (HTTP 404),
// anything else names the failing node.
func fanoutError(node graph.NodeID, u behavior.UserID, verr error) error {
	if behavior.UserID(node) == u && errors.Is(verr, store.ErrNotFound) {
		return fmt.Errorf("%w %d: %v", ErrUnknownUser, u, verr)
	}
	return fmt.Errorf("server: features for node %d: %w", node, verr)
}

// gatherFeatures gathers the feature vector of every subgraph node,
// normalized, into a pooled matrix (the caller returns it with
// tensor.PutMatrix).
func (p *PredictionServer) gatherFeatures(ctx context.Context, feats feature.Source, normalizer func([]float64) []float64, sg *graph.Subgraph, u behavior.UserID, at time.Time) (*tensor.Matrix, error) {
	n := sg.NumNodes()
	users := make([]behavior.UserID, n)
	for i, node := range sg.Nodes {
		users[i] = behavior.UserID(node)
	}
	var x *tensor.Matrix
	failed, err := p.gather(ctx, feats, users, at, func(i int, vec []float64) {
		if normalizer != nil {
			vec = normalizer(vec)
		}
		if x == nil {
			x = tensor.GetMatrix(n, len(vec))
		}
		copy(x.Row(i), vec)
	})
	if err != nil {
		tensor.PutMatrix(x)
		return nil, fanoutError(sg.Nodes[failed], u, err)
	}
	return x, nil
}

// predictFull is tier 1: sample the computation subgraph, cut to the
// cone of the model about to score it, gather the features, run the
// model. Each stage honors its deadline.
func (p *PredictionServer) predictFull(ctx context.Context, feats feature.Source, model gnn.Model, normalizer func([]float64) []float64, u behavior.UserID, at time.Time) (Prediction, error) {
	if model == nil {
		return Prediction{}, fmt.Errorf("server: no model attached")
	}
	start := time.Now()
	sctx := ctx
	if p.Deadlines.Sample > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, p.Deadlines.Sample)
		defer cancel()
	}
	sg, err := p.bn.SampleConeCtx(sctx, u, gnn.Depth(model))
	sampleDone := time.Now()
	trace := telemetry.TraceFrom(ctx)
	trace.AddSpan(StageSample, start, sampleDone.Sub(start), telemetry.Outcome(err))
	p.Tel.ObserveStage(StageSample, sampleDone.Sub(start))
	if err != nil {
		return Prediction{}, err
	}

	fctx := ctx
	if p.Deadlines.Feature > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, p.Deadlines.Feature)
		defer cancel()
	}
	n := sg.NumNodes()
	var x *tensor.Matrix
	var ferr error
	p.FeatureLatency.Time(func() {
		x, ferr = p.gatherFeatures(fctx, feats, normalizer, sg, u, at)
	})
	featDone := time.Now()
	trace.AddSpan(StageFeature, sampleDone, featDone.Sub(sampleDone), telemetry.Outcome(ferr))
	p.Tel.ObserveStage(StageFeature, featDone.Sub(sampleDone))
	if ferr != nil {
		return Prediction{}, ferr
	}

	var prob float64
	var serr error
	p.PredictLatency.Time(func() {
		scx := ctx
		if p.Deadlines.Score > 0 {
			var cancel context.CancelFunc
			scx, cancel = context.WithTimeout(ctx, p.Deadlines.Score)
			defer cancel()
		}
		batch := gnn.NewBatch(sg, x)
		scored := false
		if p.f32Enabled.Load() {
			if serr = scx.Err(); serr == nil {
				prob, scored = gnn.Score32(model, batch)
			}
		}
		if serr == nil && !scored {
			prob, serr = gnn.ScoreCtx(scx, model, batch)
		}
		batch.Release()
		tensor.PutMatrix(x)
	})
	end := time.Now()
	trace.AddSpan(StageScore, featDone, end.Sub(featDone), telemetry.Outcome(serr))
	p.Tel.ObserveStage(StageScore, end.Sub(featDone))
	if serr != nil {
		return Prediction{}, serr
	}
	p.Tel.ScoreMode(gnn.CanInfer(model))

	return Prediction{
		User:           u,
		Probability:    prob,
		Fraud:          prob >= p.Threshold,
		SubgraphNodes:  n,
		SubgraphEdges:  sg.NumEdges(),
		ServedBy:       TierFull,
		SampleLatency:  sampleDone.Sub(start),
		FeatureLatency: featDone.Sub(sampleDone),
		PredictLatency: end.Sub(featDone),
	}, nil
}

// predictFallback is tier 2: the feature-only fallback model over the
// target user's own vector, with a fresh feature-stage budget.
func (p *PredictionServer) predictFallback(ctx context.Context, feats feature.Source, normalizer func([]float64) []float64, u behavior.UserID, at time.Time) (Prediction, error) {
	fb := p.Fallback
	if fb == nil {
		return Prediction{}, fmt.Errorf("server: no fallback model")
	}
	fctx := ctx
	if p.Deadlines.Feature > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, p.Deadlines.Feature)
		defer cancel()
	}
	fstart := time.Now()
	var vec []float64
	_, err := p.gather(fctx, feats, []behavior.UserID{u}, at, func(_ int, v []float64) { vec = v })
	featDone := time.Now()
	trace := telemetry.TraceFrom(ctx)
	trace.AddSpan(StageFeature, fstart, featDone.Sub(fstart), telemetry.Outcome(err))
	p.Tel.ObserveStage(StageFeature, featDone.Sub(fstart))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return Prediction{}, fmt.Errorf("%w %d: %v", ErrUnknownUser, u, err)
		}
		return Prediction{}, fmt.Errorf("server: fallback features for user %d: %w", u, err)
	}
	if normalizer != nil {
		vec = normalizer(vec)
	}
	x := tensor.New(1, len(vec))
	copy(x.Row(0), vec)
	prob := fb.PredictProba(x)[0]
	trace.AddSpan(StageScore, featDone, time.Since(featDone), "ok")
	p.Tel.ObserveStage(StageScore, time.Since(featDone))
	return Prediction{
		User:           u,
		Probability:    prob,
		Fraud:          prob >= p.Threshold,
		ServedBy:       TierFallback,
		Degraded:       true,
		FeatureLatency: featDone.Sub(fstart),
		PredictLatency: time.Since(featDone),
	}, nil
}

// predictStatic is tier 3: no dependency is consulted at all. It serves
// the user's last-known score when one exists, otherwise the prior.
func (p *PredictionServer) predictStatic(u behavior.UserID) Prediction {
	p.lastMu.RLock()
	score, ok := p.last[u]
	p.lastMu.RUnlock()
	tier := TierCache
	if !ok {
		score = p.Prior
		tier = TierPrior
	}
	return Prediction{
		User:        u,
		Probability: score,
		Fraud:       score >= p.Threshold,
		ServedBy:    tier,
		Degraded:    true,
	}
}

// LatencySummaries returns the §V digests of the three online modules
// plus the end-to-end pipeline.
func (p *PredictionServer) LatencySummaries() map[string]metrics.Summary {
	return map[string]metrics.Summary{
		"sampling": p.bn.SamplingLatency.Summarize(),
		"features": p.FeatureLatency.Summarize(),
		"predict":  p.PredictLatency.Summarize(),
		"total":    p.TotalLatency.Summarize(),
	}
}
