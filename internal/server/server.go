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
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
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

	// sampleFault, when set, runs before every audit's sample and every
	// SampleCtx, under the caller's context (an audit's sample deadline).
	// The fault injector uses it to add latency and hangs to the sampling
	// stage. Install with SetSampleFault before serving.
	sampleFault func(context.Context) error

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

	SampleHops   int
	MaxNeighbors int
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
		store:        store,
		builder:      builder,
		g:            g,
		hasTxn:       make(map[behavior.UserID]bool),
		SampleHops:   2,
		MaxNeighbors: 32,
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

// SetSampleFault installs a hook run before every audit's sample and
// every SampleCtx, under the caller's context (nil removes it). An error
// from it fails the sample; an audit then degrades as on a sampling
// timeout. Call before serving: installation is not synchronized with
// in-flight samples.
func (s *BNServer) SetSampleFault(fn func(context.Context) error) { s.sampleFault = fn }

// Store exposes the log store (used by the feature service).
func (s *BNServer) Store() *behavior.Store { return s.store }

// TxnFilter returns the audit-eligibility filter — users with a
// registered transaction (§III-A). The closure is safe for concurrent
// use and takes txnMu once per call: it answers one-off checks such as
// /subgraph's. A sample's walk (txnWalk) and the full-graph passes'
// cohort list (gatherCohort) hold the read lock once for their whole
// walk instead.
func (s *BNServer) TxnFilter() func(graph.NodeID) bool {
	return func(n graph.NodeID) bool {
		s.txnMu.RLock()
		ok := s.hasTxn[behavior.UserID(n)]
		s.txnMu.RUnlock()
		return ok
	}
}

// Sample extracts the full computation subgraph of user u (every induced
// edge: what DOT export and an all-rows reference forward need) from the
// current snapshot, restricted to users with transactions. It performs
// zero graph mutex acquisitions. A user registered since the last
// Advance is not in the snapshot yet and is sampled as a lone node.
func (s *BNServer) Sample(u behavior.UserID) *graph.Subgraph { return s.sample(u, 0) }

// sample draws u's subgraph from the current snapshot, cut to the
// computation cone of a layers-deep model when layers is positive
// (graph.SampleOptions.Layers).
func (s *BNServer) sample(u behavior.UserID, layers int) *graph.Subgraph {
	f := txnWalk{s: s}
	defer f.done()
	return s.Snapshot().Sample(graph.NodeID(u), s.sampleOptions(layers, &f))
}

// sampleOptions returns the options every sample of this server is drawn
// with, filtered by f.
func (s *BNServer) sampleOptions(layers int, f *txnWalk) graph.SampleOptions {
	return graph.SampleOptions{Hops: s.SampleHops, MaxNeighbors: s.MaxNeighbors, Layers: layers, Filter: f.accept}
}

// txnWalk is one sample's Filter: users with a transaction. It takes
// txnMu's read lock once for the whole walk, at the first neighbour it is
// asked about rather than up front, so a walk that asks about none (a
// target with no edges) never takes it; done drops it.
type txnWalk struct {
	s      *BNServer
	locked bool
}

func (f *txnWalk) accept(n graph.NodeID) bool {
	if !f.locked {
		f.s.txnMu.RLock()
		f.locked = true
	}
	return f.s.hasTxn[behavior.UserID(n)]
}

func (f *txnWalk) done() {
	if f.locked {
		f.s.txnMu.RUnlock()
	}
}

// beforeSample fails when ctx is done, then runs the sample fault hook,
// if one is installed, under ctx.
func (s *BNServer) beforeSample(ctx context.Context, u behavior.UserID) error {
	err := ctx.Err()
	if err == nil && s.sampleFault != nil {
		err = s.sampleFault(ctx)
	}
	if err != nil {
		return fmt.Errorf("server: sampling user %d: %w", u, err)
	}
	return nil
}

// SampleCtx is Sample under ctx: it fails instead of sampling when ctx
// is done or the sample fault hook fails under it.
func (s *BNServer) SampleCtx(ctx context.Context, u behavior.UserID) (*graph.Subgraph, error) {
	if err := s.beforeSample(ctx, u); err != nil {
		return nil, err
	}
	return s.Sample(u), nil
}

// sampleBatch draws the batch an audit of u scores under model, without
// features: u's sample from the current snapshot, cut to model's
// computation cone, which gnn.SampleCone writes straight into the
// model's matrices. The snapshot is in memory and lock-free, so only the
// sample fault hook can block: the sample deadline is armed only when
// one is installed. It also returns the sample's nodes (valid until the
// batch's Release) and its typed edge count.
func (p *PredictionServer) sampleBatch(ctx context.Context, u behavior.UserID, model gnn.Model) (*gnn.Batch, []graph.NodeID, int, error) {
	if p.bn.sampleFault != nil && p.Deadlines.Sample > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadlines.Sample)
		defer cancel()
	}
	if err := p.bn.beforeSample(ctx, u); err != nil {
		return nil, nil, 0, err
	}
	f := txnWalk{s: p.bn}
	defer f.done()
	b, nodes, edges := gnn.SampleCone(p.bn.Snapshot(), graph.NodeID(u), p.bn.sampleOptions(0, &f), model)
	return b, nodes, edges, nil
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

// StageDeadlines bounds the audit path. Zero fields mean no deadline:
// Sample and Feature bound their own stage, Total the whole full-path
// audit, inside which the score stage checks the audit's context.
type StageDeadlines struct {
	Sample  time.Duration
	Feature time.Duration
	Total   time.Duration
}

// Fallback is the feature-only model of the degradation ladder: a
// baselines.Classifier-style scorer over normalized feature rows (LR or
// GBDT trained offline alongside HAG).
type Fallback interface {
	PredictProba(x *tensor.Matrix) []float64
}

// Serving is one published serving state of the prediction server: the
// feature source, model and normalizer (nil = identity) an audit runs,
// whether that model scores through float32, its artifact version, and
// that version's tier-3 score cache. A published Serving is never
// mutated: writers publish a new one, and an audit reads the state it
// runs on with one atomic load.
type Serving struct {
	Feats   feature.Source
	Model   gnn.Model
	Norm    *feature.Norm
	F32     bool
	Version int
	scores  *scoreCache
}

// scoreCache is the tier-3 last-known-score table of one artifact
// version: user → cell holding the bits of the user's latest score. A
// repeat write is one map load and one atomic store; it takes no lock
// and allocates nothing.
type scoreCache struct{ m sync.Map } // behavior.UserID → *atomic.Uint64

func (c *scoreCache) store(u behavior.UserID, prob float64) {
	bits := math.Float64bits(prob)
	cell, ok := c.m.Load(u)
	if !ok {
		fresh := new(atomic.Uint64)
		fresh.Store(bits)
		if cell, ok = c.m.LoadOrStore(u, fresh); !ok {
			return
		}
	}
	cell.(*atomic.Uint64).Store(bits)
}

func (c *scoreCache) load(u behavior.UserID) (float64, bool) {
	cell, ok := c.m.Load(u)
	if !ok {
		return 0, false
	}
	return math.Float64frombits(cell.(*atomic.Uint64).Load()), true
}

// PredictionServer runs the classification model over sampled subgraphs
// with features from the feature service. The model is hot-swappable by
// the ModelManager; a swap publishes a new Serving and never blocks an
// audit.
//
// The exported resilience knobs (Breaker, Retry, Admission, Deadlines,
// Fallback, Prior) are read on every audit; configure them before
// serving.
type PredictionServer struct {
	bn        *BNServer
	Threshold float64

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

	// Tel is the shared telemetry layer (registry, stage histograms and
	// digests, outcome counters, audit tracer). NewPredictionServer
	// adopts the BN server's layer or creates one; never nil afterwards,
	// but all uses are nil-safe.
	Tel *Telemetry

	// serving is the published serving state. writeMu serializes its
	// writers (SwapModel, SetFeatureSource, SetModelVersion,
	// ConfigureF32) and guards f32Gate and maxVersion; no audit takes
	// it, and no gate runs under it. f32Gate is the float32 tolerance validation ConfigureF32
	// installed, re-run on every SwapModel. maxVersion is the highest
	// version ever published, so a synthetic version (a swap without an
	// artifact store) never collides with a real artifact version.
	serving    atomic.Pointer[Serving]
	writeMu    sync.Mutex
	f32Gate    func(m gnn.Model) (maxDelta float64, ok bool)
	maxVersion int
}

// NewPredictionServer wires the three online modules together with the
// default resilience posture: retries on, breaker on with defaults, no
// admission cap, no deadlines, no fallback model. normalizer maps raw
// feature vectors to model inputs (nil = identity). With a healthy
// feature service the audit path is identical to the resilience-free
// pipeline.
func NewPredictionServer(bnServer *BNServer, feats feature.Source, model gnn.Model, normalizer func([]float64) []float64, threshold float64) *PredictionServer {
	tel := bnServer.Telemetry()
	if tel == nil {
		tel = NewTelemetry(TelemetryOptions{})
		bnServer.SetTelemetry(tel)
	}
	p := &PredictionServer{
		bn:        bnServer,
		Threshold: threshold,
		Breaker: resilience.NewBreaker(resilience.BreakerConfig{
			OnStateChange: tel.BreakerHook(),
		}),
		Retry: resilience.RetryConfig{Attempts: 2, BaseDelay: 5 * time.Millisecond},
		Prior: 0.05,
		Tel:   tel,
	}
	p.serving.Store(&Serving{Feats: feats, Model: model, Norm: feature.NewNorm(normalizer), scores: new(scoreCache)})
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

// publish stores a copy of the serving state with edit applied and
// returns it. The caller holds writeMu.
func (p *PredictionServer) publish(edit func(s *Serving)) *Serving {
	next := *p.serving.Load()
	edit(&next)
	p.serving.Store(&next)
	return &next
}

// gateF32 runs gate on the model of s, a Serving its caller published
// with F32 off, without holding writeMu, and publishes F32 on only if
// the gate passes and s is still the published state: a verdict never
// outlives the model, gate or state it was computed for. It reports
// whether float32 scoring is now on.
func (p *PredictionServer) gateF32(s *Serving, gate func(m gnn.Model) (float64, bool)) (float64, bool) {
	if gate == nil || s.Model == nil {
		return 0, false
	}
	maxDelta, ok := gate(s.Model)
	if !ok {
		return maxDelta, false
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if p.serving.Load() != s {
		return maxDelta, false
	}
	p.publish(func(next *Serving) { next.F32 = true })
	return maxDelta, true
}

// SwapModel replaces the serving model and normalizer (the model
// management module calls this after each offline retrain); the
// normalizer keeps the contract core.System.SetModel states. The model
// publishes at once under a never-before-used version with an empty
// tier-3 cache, so no score of the retired model is served by tier 3;
// the model manager pins the real artifact version right after
// (SetModelVersion). It scores in float64 until the float32 gate
// ConfigureF32 installed passes on this model: a model that quantizes
// badly never serves quantized, not even while its gate runs.
func (p *PredictionServer) SwapModel(m gnn.Model, normalizer func([]float64) []float64) {
	p.writeMu.Lock()
	p.maxVersion++
	swapped := p.publish(func(s *Serving) {
		s.Model, s.Norm, s.F32 = m, feature.NewNorm(normalizer), false
		s.Version, s.scores = p.maxVersion, new(scoreCache)
	})
	gate := p.f32Gate
	p.writeMu.Unlock()
	if maxDelta, ok := p.gateF32(swapped, gate); gate != nil && !ok {
		log.Printf("server: f32 not enabled on swapped model %s (gate max delta %.3g), serving float64", m.Name(), maxDelta)
	}
}

// ConfigureF32 installs the float32 tolerance gate (typically a closure
// over gnn.ValidateF32 and a held-out validation batch) and runs it
// against the current model, enabling float32 scoring when it passes.
// It returns the gate's max delta and whether float32 scoring is now on.
// A nil validate disables the path.
func (p *PredictionServer) ConfigureF32(validate func(m gnn.Model) (maxDelta float64, ok bool)) (float64, bool) {
	p.writeMu.Lock()
	p.f32Gate = validate
	s := p.publish(func(next *Serving) { next.F32 = false })
	p.writeMu.Unlock()
	return p.gateF32(s, validate)
}

// SetFeatureSource replaces the feature source (the fault injector wraps
// the real service through this).
func (p *PredictionServer) SetFeatureSource(src feature.Source) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	p.publish(func(s *Serving) { s.Feats = src })
}

// Serving returns the serving state audits currently run on: feature
// source, model, normalizer, float32 verdict and artifact version as one
// consistent read.
func (p *PredictionServer) Serving() *Serving { return p.serving.Load() }

// RememberScoresFor installs freshly computed scores into the tier-3
// cache of the artifact version they were computed under (a Serving's
// Version): if a swap or rollback moved the serving version meanwhile,
// the batch is dropped instead of poisoning the new model's cache with
// the old model's scores.
func (p *PredictionServer) RememberScoresFor(users []behavior.UserID, probs []float64, version int) {
	s := p.serving.Load()
	if s.Version != version {
		return
	}
	for i, u := range users {
		s.scores.store(u, probs[i])
	}
}

// SetModelVersion pins the serving artifact version (the model manager
// calls it after each accepted swap, rollback, or boot load). A version
// change starts an empty tier-3 cache — the old one holds the previous
// artifact's scores.
func (p *PredictionServer) SetModelVersion(v int) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	p.maxVersion = max(p.maxVersion, v)
	if v != p.serving.Load().Version {
		p.publish(func(s *Serving) { s.Version, s.scores = v, new(scoreCache) })
	}
}

// ModelLoaded reports whether a serving model is attached (readiness).
func (p *PredictionServer) ModelLoaded() bool { return p.serving.Load().Model != nil }

// BreakerState names the breaker state for /readyz and /stats
// ("disabled" when no breaker is configured).
func (p *PredictionServer) BreakerState() string {
	if p.Breaker == nil {
		return "disabled"
	}
	return p.Breaker.State().String()
}

// ServedCounts returns the per-tier audit counters.
func (p *PredictionServer) ServedCounts() map[string]int64 { return p.Tel.ServedCounts() }

// LatencySummaries returns the §V digests of the three online modules
// plus the end-to-end pipeline.
func (p *PredictionServer) LatencySummaries() map[string]telemetry.Summary {
	return p.Tel.LatencySummaries()
}

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
// Every tier runs on the one Serving loaded at the top of the audit.
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
			p.Tel.Outcome("shed")
			err := fmt.Errorf("server: audit of user %d: %w", u, resilience.ErrOverloaded)
			trace.SetTier("shed", false)
			trace.SetError(err)
			return Prediction{}, err
		}
		defer p.Admission.Release()
	}
	sv := p.serving.Load()

	start := time.Now()
	if p.Embed != nil && sv.Model != nil {
		if pred, ok := p.Embed.TryPredict(u, sv.Model, p.Threshold); ok {
			p.finish(sv, &pred, start, true)
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
	pred, err := p.predictFull(ctx, sv, u, at)
	if err == nil {
		p.finish(sv, &pred, start, true)
		trace.SetTier(pred.ServedBy, pred.Degraded)
		return pred, nil
	}
	if errors.Is(err, ErrUnknownUser) {
		p.Tel.Outcome("unknown")
		trace.SetTier("unknown", false)
		trace.SetError(err)
		return Prediction{}, err
	}

	pred, ferr := p.predictFallback(ctx, sv, u, at)
	if ferr == nil {
		p.finish(sv, &pred, start, true)
		trace.SetTier(pred.ServedBy, pred.Degraded)
		return pred, nil
	}
	if errors.Is(ferr, ErrUnknownUser) {
		p.Tel.Outcome("unknown")
		trace.SetTier("unknown", false)
		trace.SetError(ferr)
		return Prediction{}, ferr
	}

	pred = p.predictStatic(sv, u)
	p.finish(sv, &pred, start, false)
	trace.SetTier(pred.ServedBy, pred.Degraded)
	return pred, nil
}

// finish stamps the end-to-end latency, records it and the tier once in
// the telemetry layer and, for genuinely computed scores, remembers the
// result in the tier-3 cache of the Serving that scored the audit — a
// cache a swap since then has already retired.
func (p *PredictionServer) finish(sv *Serving, pred *Prediction, start time.Time, remember bool) {
	pred.TotalLatency = time.Since(start)
	p.Tel.ObserveStage(StageTotal, pred.TotalLatency)
	p.Tel.Outcome(pred.ServedBy)
	if pred.Degraded {
		p.Tel.Outcome("degraded")
	}
	if remember {
		sv.scores.store(pred.User, pred.Probability)
	}
}

// gather fetches the vectors of users, normalized by norm (nil = raw),
// through the breaker and the retry policy: one breaker Allow/Record and
// one retry loop per call, however many rows, with each retry resuming
// at the failing row. It returns the lowest failing row with its error.
// A missing profile is a definitive answer, not a dependency failure: it
// is never retried and never trips the breaker.
func (p *PredictionServer) gather(ctx context.Context, feats feature.Source, norm *feature.Norm, users []behavior.UserID, at time.Time, fn func(i int, vec []float64)) (int, error) {
	if p.Breaker != nil {
		if err := p.Breaker.Allow(); err != nil {
			return 0, err
		}
	}
	done, attempts := 0, 0
	err := resilience.Retry(ctx, p.Retry, func(ctx context.Context) error {
		attempts++
		n, err := feats.Gather(ctx, users[done:], at, norm, func(i int, vec []float64) { fn(done+i, vec) })
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

// userBufs recycles gatherFeatures' user lists.
var userBufs = sync.Pool{New: func() any { return new([]behavior.UserID) }}

// gatherFeatures gathers the feature vector of every sampled node,
// normalized by norm, into b's rows: X and its float32 mirror together.
func (p *PredictionServer) gatherFeatures(ctx context.Context, feats feature.Source, norm *feature.Norm, nodes []graph.NodeID, b *gnn.Batch, u behavior.UserID, at time.Time) error {
	buf := userBufs.Get().(*[]behavior.UserID)
	defer userBufs.Put(buf)
	users := (*buf)[:0]
	for _, node := range nodes {
		users = append(users, behavior.UserID(node))
	}
	*buf = users
	failed, err := p.gather(ctx, feats, norm, users, at, b.SetRow)
	if err != nil {
		return fanoutError(nodes[failed], u, err)
	}
	return nil
}

// predictFull is tier 1: sample the computation cone of the model about
// to score it, straight into a batch, gather the features into the
// batch, run the model. The sample honors its deadline where it can
// block, the gather its own; scoring checks the audit's context.
func (p *PredictionServer) predictFull(ctx context.Context, sv *Serving, u behavior.UserID, at time.Time) (Prediction, error) {
	model := sv.Model
	if model == nil {
		return Prediction{}, fmt.Errorf("server: no model attached")
	}
	start := time.Now()
	batch, nodes, edges, err := p.sampleBatch(ctx, u, model)
	sampleDone := time.Now()
	trace := telemetry.TraceFrom(ctx)
	trace.AddSpan(StageSample, start, sampleDone.Sub(start), telemetry.Outcome(err))
	p.Tel.ObserveStage(StageSample, sampleDone.Sub(start))
	if err != nil {
		return Prediction{}, err
	}
	defer batch.Release()

	fctx := ctx
	if p.Deadlines.Feature > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(ctx, p.Deadlines.Feature)
		defer cancel()
	}
	err = p.gatherFeatures(fctx, sv.Feats, sv.Norm, nodes, batch, u, at)
	featDone := time.Now()
	trace.AddSpan(StageFeature, sampleDone, featDone.Sub(sampleDone), telemetry.Outcome(err))
	p.Tel.ObserveStage(StageFeature, featDone.Sub(sampleDone))
	if err != nil {
		return Prediction{}, err
	}

	var prob float64
	scored := false
	if sv.F32 && ctx.Err() == nil {
		prob, scored = gnn.Score32(model, batch)
	}
	if !scored {
		prob, err = gnn.ScoreCtx(ctx, model, batch)
	}
	end := time.Now()
	trace.AddSpan(StageScore, featDone, end.Sub(featDone), telemetry.Outcome(err))
	p.Tel.ObserveStage(StageScore, end.Sub(featDone))
	if err != nil {
		return Prediction{}, err
	}

	return Prediction{
		User:           u,
		Probability:    prob,
		Fraud:          prob >= p.Threshold,
		SubgraphNodes:  len(nodes),
		SubgraphEdges:  edges,
		ServedBy:       TierFull,
		SampleLatency:  sampleDone.Sub(start),
		FeatureLatency: featDone.Sub(sampleDone),
		PredictLatency: end.Sub(featDone),
	}, nil
}

// predictFallback is tier 2: the feature-only fallback model over the
// target user's own vector, with a fresh feature-stage budget.
func (p *PredictionServer) predictFallback(ctx context.Context, sv *Serving, u behavior.UserID, at time.Time) (Prediction, error) {
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
	_, err := p.gather(fctx, sv.Feats, sv.Norm, []behavior.UserID{u}, at, func(_ int, v []float64) { vec = v })
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
	x := tensor.New(1, len(vec))
	copy(x.Row(0), vec)
	prob := fb.PredictProba(x)[0]
	scoreTook := time.Since(featDone)
	trace.AddSpan(StageScore, featDone, scoreTook, "ok")
	p.Tel.ObserveStage(StageScore, scoreTook)
	return Prediction{
		User:           u,
		Probability:    prob,
		Fraud:          prob >= p.Threshold,
		ServedBy:       TierFallback,
		Degraded:       true,
		FeatureLatency: featDone.Sub(fstart),
		PredictLatency: scoreTook,
	}, nil
}

// predictStatic is tier 3: no dependency is consulted at all. It serves
// the user's last-known score under the audit's serving version when one
// exists, otherwise the prior.
func (p *PredictionServer) predictStatic(sv *Serving, u behavior.UserID) Prediction {
	score, ok := sv.scores.load(u)
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
