package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/embed"
	"turbo/internal/gnn"
	"turbo/internal/graph"
)

// EmbedEngine runs the lambda serving tier: a full embedding sweep
// precomputes every user's penultimate activations (RebuildOnce), edge
// deltas invalidate the affected (L−1)-hop neighborhoods through the
// graph's delta observer and the BN server's pre-publish hook, and a
// background incremental pass re-embeds only the dirty set
// (RefreshOnce). Audits whose target star is fully clean are answered
// from cached embeddings — final aggregation layer plus head, no
// sampling, no feature fan-out — and everything else falls through to
// the usual hag→fallback→cache ladder.
type EmbedEngine struct {
	bn    *BNServer
	pred  *PredictionServer
	store *embed.Store

	runMu       sync.Mutex // serializes rebuilds and refreshes
	inflight    atomic.Int64
	lastRebuild atomic.Pointer[EmbedRebuildReport]
	lastRefresh atomic.Pointer[EmbedRefreshReport]
}

// EmbedRebuildReport describes one completed full table rebuild.
type EmbedRebuildReport struct {
	At         time.Time     `json:"at"`
	Epoch      uint64        `json:"snapshot_epoch"`
	Version    int           `json:"model_version"`
	Candidates int           `json:"candidates"`
	Rows       int           `json:"rows"`
	Skipped    int           `json:"skipped"`  // users whose feature fetch failed
	Servable   bool          `json:"servable"` // a table was installed
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// EmbedRefreshReport describes one incremental dirty-set refresh.
type EmbedRefreshReport struct {
	At      time.Time     `json:"at"`
	Dirty   int           `json:"dirty"`
	Ball    int           `json:"ball"`
	Cleared int           `json:"cleared"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// NewEmbedEngine wires the lambda tier into the online stack: it
// installs the graph delta observer and the snapshot pre-publish flush
// (mark-before-publish), attaches itself as the prediction server's
// embed tier, and re-registers the embedding gauges with live
// callbacks. Call before serving.
func NewEmbedEngine(bn *BNServer, pred *PredictionServer) *EmbedEngine {
	e := &EmbedEngine{bn: bn, pred: pred, store: embed.NewStore()}
	bn.Graph().SetDeltaObserver(e.store.NoteDelta)
	bn.SetPrePublish(e.store.Flush)
	pred.Embed = e
	pred.Tel.RegisterEmbedGauges(
		func() float64 { return e.store.Table().AgeSeconds() },
		func() float64 {
			if tab := e.store.Table(); tab != nil {
				return float64(tab.DirtyCount())
			}
			return 0
		},
		func() float64 {
			if tab := e.store.Table(); tab != nil {
				return float64(tab.NumRows())
			}
			return 0
		},
	)
	return e
}

// Store exposes the underlying embedding store (tests and benchmarks).
func (e *EmbedEngine) Store() *embed.Store { return e.store }

// InFlight reports the number of rebuild/refresh passes currently
// running or queued on the run lock.
func (e *EmbedEngine) InFlight() int64 { return e.inflight.Load() }

// LastRebuild returns the most recent rebuild report, if any.
func (e *EmbedEngine) LastRebuild() (EmbedRebuildReport, bool) { return loadReport(&e.lastRebuild) }

// LastRefresh returns the most recent refresh report, if any.
func (e *EmbedEngine) LastRefresh() (EmbedRefreshReport, bool) { return loadReport(&e.lastRefresh) }

// TryPredict attempts to serve one audit from cached embeddings. The
// model argument is the audit's own serving-model snapshot; any skew
// with the table refuses. ok is true only on a clean Hit — every other
// result is counted and falls through to the sampled-subgraph path.
func (e *EmbedEngine) TryPredict(u behavior.UserID, model gnn.Model, threshold float64) (Prediction, bool) {
	t0 := time.Now()
	prob, res := e.store.TryServe(e.bn.Snapshot(), graph.NodeID(u), model)
	e.pred.Tel.EmbedServed(res.String())
	if res != embed.Hit {
		return Prediction{}, false
	}
	lat := time.Since(t0)
	e.pred.Tel.ObserveStage(StageScore, lat)
	return Prediction{
		User:           u,
		Probability:    prob,
		Fraud:          prob >= threshold,
		ServedBy:       TierEmbed,
		PredictLatency: lat,
	}, true
}

// RebuildOnce rebuilds the embedding table from scratch against the
// current snapshot and model: one cohort gather over every
// audit-eligible user, one captured embedding sweep, per-node star
// compilation, then an atomic install. Deltas that land during the
// build are replayed onto the new table (Store rebuild log), so the
// fresh table can never silently serve scores that predate them. The
// sweep scores the final layer anyway, so the rebuild doubles as a
// full-graph score sweep: the probabilities refresh the tier-3 cache
// under the build's version tag.
func (e *EmbedEngine) RebuildOnce(ctx context.Context) (EmbedRebuildReport, error) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	e.runMu.Lock()
	defer e.runMu.Unlock()

	start := time.Now()
	sv := e.pred.Serving()
	if sv.Model == nil {
		return EmbedRebuildReport{}, fmt.Errorf("server: embed rebuild: no model attached")
	}
	rep := EmbedRebuildReport{At: start, Version: sv.Version}
	e.store.BeginRebuild()
	defer func() {
		if !rep.Servable {
			e.store.AbortRebuild()
		}
	}()

	c, err := e.bn.gatherCohort(ctx, sv.Feats, sv.Norm, 0)
	if err != nil {
		return EmbedRebuildReport{}, fmt.Errorf("server: embed rebuild: %w", err)
	}
	rep.Epoch, rep.Candidates, rep.Skipped = c.snap.Epoch(), c.candidates, c.skipped
	if len(c.nodes) > 0 {
		// The table owns the cohort's feature matrix for the lifetime of
		// the tier: refresh passes re-read its frozen rows.
		res, err := embed.Build(c.snap, c.nodes, c.x, sv.Model, sv.Version)
		if err != nil {
			return EmbedRebuildReport{}, fmt.Errorf("server: embed rebuild: %w", err)
		}
		// Install against the snapshot of NOW, not the build snapshot: the
		// rebuild log's delta balls must be walked on an adjacency that
		// contains them.
		e.store.Install(res.Table, e.bn.Snapshot())
		rep.Servable = true
		e.pred.RememberScoresFor(c.users, res.Probs, sv.Version)
		rep.Rows = len(c.nodes)
	}
	rep.Elapsed = time.Since(start)
	e.lastRebuild.Store(&rep)
	return rep, nil
}

// RefreshOnce runs one incremental refresh: re-embed the dirty set
// (padded to its (L−1)-hop ball) against the current snapshot and
// republish only those rows. A no-op when nothing is dirty.
func (e *EmbedEngine) RefreshOnce() EmbedRefreshReport {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	e.runMu.Lock()
	defer e.runMu.Unlock()

	st := e.store.Refresh(e.bn.Snapshot())
	rep := EmbedRefreshReport{
		At:      time.Now(),
		Dirty:   st.Dirty,
		Ball:    st.Ball,
		Cleared: st.Cleared,
		Elapsed: st.Elapsed,
	}
	if st.Ball > 0 {
		e.pred.Tel.ObserveEmbedRefresh(st.Elapsed, st.Ball)
		e.lastRefresh.Store(&rep)
	}
	return rep
}

// RunRefreshLoop refreshes the dirty set every interval until ctx is
// done (the serving binary runs it as the background refresh goroutine).
func (e *EmbedEngine) RunRefreshLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.RefreshOnce()
		}
	}
}

// StatsSnapshot summarizes the tier for the /stats endpoint.
func (e *EmbedEngine) StatsSnapshot() map[string]any {
	body := map[string]any{
		"inflight":       e.inflight.Load(),
		"pending_deltas": e.store.PendingDeltas(),
	}
	if tab := e.store.Table(); tab != nil {
		body["rows"] = tab.NumRows()
		body["dirty_rows"] = tab.DirtyCount()
		body["model_version"] = tab.Version()
		body["table_epoch"] = tab.Epoch()
		body["age_seconds"] = tab.AgeSeconds()
	}
	if rep, ok := e.LastRebuild(); ok {
		body["last_rebuild"] = rep
	}
	if rep, ok := e.LastRefresh(); ok {
		body["last_refresh"] = rep
	}
	return body
}
