package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/sweep"
	"turbo/internal/tensor"
)

// SweepEngine re-scores every audit-eligible user in one shard-parallel
// layer-at-a-time pass over the published BN snapshot (internal/sweep),
// instead of one sampled-subgraph audit per user. It is the online
// counterpart of the eval harness's full-batch scoring: the model
// manager triggers it after each hot swap so the last-known-score cache
// reflects the new model, and POST /admin/sweep runs it on demand.
//
// A sweep reads only immutable state — the snapshot, the model
// parameters, and bulk-fetched feature vectors — so it runs entirely in
// parallel with ingestion and audits; concurrent sweeps are serialized.
type SweepEngine struct {
	bn   *BNServer
	pred *PredictionServer

	// Opts tunes the shard execution (worker count, row costs). The zero
	// value selects one worker per core up to sweep.MaxWorkers with
	// edge-count balancing.
	Opts sweep.Options

	runMu    sync.Mutex // serializes sweeps
	inflight atomic.Int64

	lastMu  sync.RWMutex
	last    SweepReport
	hasLast bool
}

// SweepReport describes one completed full-graph sweep.
type SweepReport struct {
	At         time.Time     `json:"at"`
	Epoch      uint64        `json:"snapshot_epoch"`
	Candidates int           `json:"candidates"` // snapshot users with transactions
	Scored     int           `json:"scored"`
	Skipped    int           `json:"skipped"` // users whose feature fetch failed
	Edges      int           `json:"edges"`
	Steps      int           `json:"steps"`
	Workers    int           `json:"workers"`
	Fallback   bool          `json:"fallback"` // model had no sweep decomposition
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// NewSweepEngine wires a sweep engine over the online stack and
// registers the turbo_sweep_inflight gauge.
func NewSweepEngine(bn *BNServer, pred *PredictionServer) *SweepEngine {
	e := &SweepEngine{bn: bn, pred: pred}
	pred.Tel.RegisterSweepGauge(func() float64 { return float64(e.inflight.Load()) })
	return e
}

// LastReport returns the most recent sweep's report, if any.
func (e *SweepEngine) LastReport() (SweepReport, bool) {
	e.lastMu.RLock()
	defer e.lastMu.RUnlock()
	return e.last, e.hasLast
}

// InFlight reports the number of sweeps currently running (0 or 1; the
// run lock serializes them but callers may be queued).
func (e *SweepEngine) InFlight() int64 { return e.inflight.Load() }

// RunOnce re-scores every user with a transaction in the current
// snapshot: bulk feature fetch, one full-graph subgraph compilation, one
// shard-parallel sweep, then a bulk update of the last-known-score
// cache. Users whose feature fetch fails are skipped and counted, not
// fatal; ctx cancels the feature fetch stage.
func (e *SweepEngine) RunOnce(ctx context.Context) (SweepReport, error) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	e.runMu.Lock()
	defer e.runMu.Unlock()

	start := time.Now()
	sv := e.pred.Serving()
	if sv.Model == nil {
		return SweepReport{}, fmt.Errorf("server: sweep: no model attached")
	}
	snap := e.bn.Snapshot()
	filter := e.bn.TxnFilter()
	var users []behavior.UserID
	for _, id := range snap.Nodes() {
		if filter(id) {
			users = append(users, behavior.UserID(id))
		}
	}
	rep := SweepReport{At: start, Epoch: snap.Epoch(), Candidates: len(users)}
	if len(users) == 0 {
		rep.Elapsed = time.Since(start)
		e.record(rep)
		return rep, nil
	}

	vecs, errs := feature.FetchVectors(ctx, sv.Feats, users, time.Now())
	if err := ctx.Err(); err != nil {
		return SweepReport{}, fmt.Errorf("server: sweep: feature fetch: %w", err)
	}
	okUsers := make([]behavior.UserID, 0, len(users))
	okNodes := make([]graph.NodeID, 0, len(users))
	okVecs := make([][]float64, 0, len(users))
	for i, vec := range vecs {
		if errs[i] != nil {
			rep.Skipped++
			continue
		}
		if sv.Norm != nil {
			vec = sv.Norm(vec)
		}
		okUsers = append(okUsers, users[i])
		okNodes = append(okNodes, graph.NodeID(users[i]))
		okVecs = append(okVecs, vec)
	}
	rep.Scored = len(okUsers)
	if rep.Scored == 0 {
		rep.Elapsed = time.Since(start)
		e.record(rep)
		return rep, nil
	}

	x := tensor.GetMatrix(len(okVecs), len(okVecs[0]))
	for i, vec := range okVecs {
		copy(x.Row(i), vec)
	}
	sg := graph.FullSubgraph(snap, graph.FullOptions{Nodes: okNodes})
	b := gnn.NewBatch(sg, x)
	out := make([]float64, len(okNodes))
	st := sweep.ScoresInto(out, sv.Model, b, e.Opts)
	b.Release()
	tensor.PutMatrix(x)

	e.pred.RememberScoresFor(okUsers, out, sv.Version)
	rep.Edges = st.Edges
	rep.Steps = st.Steps
	rep.Workers = st.Workers
	rep.Fallback = st.Fallback
	rep.Elapsed = time.Since(start)
	e.pred.Tel.ObserveSweep(rep.Elapsed, rep.Scored, st.ShardCompute)
	e.record(rep)
	return rep, nil
}

func (e *SweepEngine) record(rep SweepReport) {
	e.lastMu.Lock()
	e.last, e.hasLast = rep, true
	e.lastMu.Unlock()
}
