// Package core assembles the full Turbo system (Fig. 2) behind one
// facade: behavior-log ingestion, scheduled BN construction, feature
// management, and real-time fraud prediction with a trained model. It is
// the public entry point examples and cmd/turbo-server build on.
package core

import (
	"context"
	"fmt"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/persist"
	"turbo/internal/server"
)

// Config parameterizes a Turbo system.
type Config struct {
	// BN is the Algorithm 1 configuration (zero value = paper defaults:
	// hierarchical windows 1h…12h,1d and a 60-day edge TTL).
	BN bn.Config
	// Feature configures the feature management module.
	Feature feature.Config
	// Threshold is the online fraud-probability threshold; the §VI-E
	// deployment uses 0.85. Zero selects 0.85.
	Threshold float64
	// SampleHops / MaxNeighbors control computation-subgraph sampling.
	SampleHops   int
	MaxNeighbors int
	// Telemetry configures the observability layer (histogram buckets,
	// trace ring, slow-audit logging). The zero value selects defaults —
	// telemetry is always on, it costs one atomic op per observation.
	Telemetry server.TelemetryOptions
}

// System is a running Turbo instance.
type System struct {
	cfg      Config
	bn       *server.BNServer
	feats    *feature.Service
	pred     *server.PredictionServer
	sweeper  *server.SweepEngine
	embedEng *server.EmbedEngine
}

// New creates a Turbo system anchored at t0 (the BN epoch-grid origin).
// A model must be attached with SetModel before audits are served.
func New(cfg Config, t0 time.Time) (*System, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.85
	}
	bnServer, err := server.NewBNServer(cfg.BN, t0)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.SampleHops > 0 {
		bnServer.SampleHops = cfg.SampleHops
	}
	if cfg.MaxNeighbors > 0 {
		bnServer.MaxNeighbors = cfg.MaxNeighbors
	}
	feats := feature.NewService(cfg.Feature, bnServer.Store())
	bnServer.SetTelemetry(server.NewTelemetry(cfg.Telemetry))
	return &System{cfg: cfg, bn: bnServer, feats: feats}, nil
}

// AttachPersistence installs a durable-state manager: every subsequent
// ingest and transaction is write-ahead-logged, checkpoints capture the
// BN server's full state, and the telemetry registry gains the
// WAL/checkpoint metric family. Call before ingesting.
func (s *System) AttachPersistence(m *persist.Manager) {
	s.bn.SetJournal(m)
	s.Telemetry().WirePersist(m)
}

// Recover rebuilds the BN server from the attached persistence manager
// (latest checkpoint + WAL tail) and republishes the read snapshot. Run
// on a fresh system before any ingestion.
func (s *System) Recover() (persist.RecoveryStats, error) {
	return s.bn.Recover()
}

// SetModel attaches the trained classification model and the feature
// normalizer fitted at training time (nil = identity).
//
// The normalizer contract, which every place that takes one refers to
// here: a normalizer is a pure function of its input (the same input
// always gives the same output), it never mutates its input, and its
// caller treats the result as read-only. The feature table relies on it
// to memoize each row's normalized vector for the serving model, and
// the lifecycle shadow to score one raw cohort under two normalizers.
func (s *System) SetModel(m gnn.Model, normalizer func([]float64) []float64) {
	s.pred = server.NewPredictionServer(s.bn, s.feats, m, normalizer, s.cfg.Threshold)
	s.sweeper = server.NewSweepEngine(s.bn, s.pred)
}

// Ingest records one behavior log in real time.
func (s *System) Ingest(l behavior.Log) { s.bn.Ingest(l) }

// IngestBatch bulk-loads historical logs.
func (s *System) IngestBatch(logs []behavior.Log) { s.bn.IngestBatch(logs) }

// RegisterApplication stores a user's static features (X_u ⊕ X_τ) and
// marks the user as having a transaction, making it eligible for
// computation subgraphs and audits.
func (s *System) RegisterApplication(u behavior.UserID, features []float64) error {
	if err := s.feats.PutProfile(u, features); err != nil {
		return fmt.Errorf("core: register application: %w", err)
	}
	s.bn.RegisterTransaction(u)
	return nil
}

// Advance runs the scheduled BN window jobs due by now and prunes
// expired edges; it returns the number of epoch jobs executed. Servers
// call this periodically — construction runs in parallel to audits and
// never sits on the prediction path (§V).
func (s *System) Advance(now time.Time) int { return s.bn.Advance(now) }

// Audit serves one real-time fraud detection request.
func (s *System) Audit(u behavior.UserID, at time.Time) (server.Prediction, error) {
	return s.AuditCtx(context.Background(), u, at)
}

// AuditCtx is Audit under a caller deadline: the context bounds the
// whole request on top of the prediction server's per-stage deadlines,
// and degraded-mode scoring applies when a stage cannot answer in time.
func (s *System) AuditCtx(ctx context.Context, u behavior.UserID, at time.Time) (server.Prediction, error) {
	if s.pred == nil {
		return server.Prediction{}, fmt.Errorf("core: no model attached; call SetModel first")
	}
	return s.pred.PredictCtx(ctx, u, at)
}

// API returns the HTTP handler for the online stack (nil until
// SetModel), with the full-graph sweep engine wired behind POST
// /admin/sweep and the sweep section of /stats.
func (s *System) API() *server.API {
	if s.pred == nil {
		return nil
	}
	api := server.NewAPI(s.pred, s.bn)
	api.Sweep = s.sweeper
	api.Admin.Sweep = func(ctx context.Context) (server.SweepReport, error) {
		return s.sweeper.RunOnce(ctx)
	}
	if s.embedEng != nil {
		api.Embed = s.embedEng
		api.Admin.EmbedRefresh = func(ctx context.Context) (server.EmbedRefreshReport, error) {
			return s.embedEng.RefreshOnce(), nil
		}
	}
	return api
}

// EnableEmbedTier installs the lambda embedding-serving tier (call after
// SetModel, before serving): precomputed penultimate embeddings answer
// clean-neighborhood audits with just the final aggregation layer, edge
// deltas invalidate through the dirty set, and everything else falls
// through to the normal ladder. Returns the engine for rebuild/refresh
// scheduling; idempotent.
func (s *System) EnableEmbedTier() (*server.EmbedEngine, error) {
	if s.pred == nil {
		return nil, fmt.Errorf("core: attach a model with SetModel before EnableEmbedTier")
	}
	if s.embedEng == nil {
		s.embedEng = server.NewEmbedEngine(s.bn, s.pred)
	}
	return s.embedEng, nil
}

// EmbedEngine exposes the embedding tier's engine (nil until
// EnableEmbedTier).
func (s *System) EmbedEngine() *server.EmbedEngine { return s.embedEng }

// Sweeper exposes the full-graph sweep engine (nil until SetModel): one
// shard-parallel layer-at-a-time pass re-scores every audit-eligible
// user from the published snapshot.
func (s *System) Sweeper() *server.SweepEngine { return s.sweeper }

// Rescore re-scores every audit-eligible user under the serving model:
// the one pass that follows a model swap or rollback. With the
// embedding tier on it is the table rebuild, whose sweep scores the
// final layer anyway and so also refills the tier-3 cache; otherwise it
// is the full-graph sweep. It returns a one-line summary for the log.
func (s *System) Rescore(ctx context.Context) (string, error) {
	if s.sweeper == nil {
		return "", fmt.Errorf("core: no model attached; call SetModel first")
	}
	if s.embedEng != nil {
		rep, err := s.embedEng.RebuildOnce(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("embed table built: %d rows in %v (%d skipped)", rep.Rows, rep.Elapsed, rep.Skipped), nil
	}
	rep, err := s.sweeper.RunOnce(ctx)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sweep: %d/%d users re-scored in %v (%d skipped)",
		rep.Scored, rep.Candidates, rep.Elapsed, rep.Skipped), nil
}

// BNServer exposes the BN server (stats, direct sampling).
func (s *System) BNServer() *server.BNServer { return s.bn }

// Features exposes the feature service.
func (s *System) Features() *feature.Service { return s.feats }

// PredictionServer exposes the prediction server (latency digests).
func (s *System) PredictionServer() *server.PredictionServer { return s.pred }

// Telemetry exposes the observability layer: the metrics registry behind
// GET /metrics and the audit tracer behind GET /debug/traces.
func (s *System) Telemetry() *server.Telemetry { return s.bn.Telemetry() }

// StartRetraining launches the model management module (Fig. 2): train
// is invoked every interval and the resulting model is hot-swapped into
// the prediction server. The paper retrains HAG daily. The returned
// manager reports status; cancel ctx to stop the loop.
func (s *System) StartRetraining(ctx context.Context, interval time.Duration, train server.TrainFunc) (*server.ModelManager, error) {
	if s.pred == nil {
		return nil, fmt.Errorf("core: attach an initial model with SetModel before StartRetraining")
	}
	mgr := server.NewModelManager(s.pred, train)
	// Every accepted swap and rollback is followed by a full re-score, so
	// the embedding tier and the last-known-score cache serve the new
	// model immediately.
	mgr.SetResweep(func() { _, _ = s.Rescore(context.Background()) })
	go mgr.Run(ctx, interval)
	return mgr, nil
}

// StartRetrainingGated is StartRetraining with the validation gate
// between training and serving: each candidate is scored in shadow
// against the gate's quality floors before it may swap, rejected
// candidates are quarantined, and the post-swap monitor rolls back
// automatically when live health degrades. The sweep engine is wired as
// the shadow scorer unless opts.Engine overrides it.
func (s *System) StartRetrainingGated(ctx context.Context, interval time.Duration, train server.TrainFunc, opts server.GateOptions) (*server.ModelManager, error) {
	if s.pred == nil {
		return nil, fmt.Errorf("core: attach an initial model with SetModel before StartRetrainingGated")
	}
	mgr := server.NewModelManager(s.pred, train)
	if opts.Engine == nil {
		opts.Engine = s.sweeper
	}
	mgr.EnableGate(opts)
	mgr.SetResweep(func() { _, _ = s.Rescore(context.Background()) })
	go mgr.Run(ctx, interval)
	return mgr, nil
}
