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
	"turbo/internal/tensor"
)

// SweepEngine re-scores every audit-eligible user in one full-graph
// forward over the published BN snapshot (gnn.Scores), instead of one
// sampled-subgraph audit per user. It is the online counterpart of the
// eval harness's full-batch scoring: the model manager triggers it after
// each hot swap so the last-known-score cache reflects the new model, and
// POST /admin/sweep runs it on demand.
//
// A sweep reads only immutable state — the snapshot, the model
// parameters, and bulk-fetched feature vectors — so it runs entirely in
// parallel with ingestion and audits; concurrent sweeps are serialized.
type SweepEngine struct {
	bn   *BNServer
	pred *PredictionServer

	runMu    sync.Mutex // serializes sweeps
	inflight atomic.Int64
	last     atomic.Pointer[SweepReport]
}

// SweepReport describes one completed full-graph sweep.
type SweepReport struct {
	At         time.Time     `json:"at"`
	Epoch      uint64        `json:"snapshot_epoch"`
	Candidates int           `json:"candidates"` // snapshot users with transactions
	Scored     int           `json:"scored"`
	Skipped    int           `json:"skipped"` // users whose feature fetch failed
	Edges      int           `json:"edges"`   // entries of the aggregation matrices the model read
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
func (e *SweepEngine) LastReport() (SweepReport, bool) { return loadReport(&e.last) }

// loadReport returns the report stored in p, if any.
func loadReport[R any](p *atomic.Pointer[R]) (R, bool) {
	if r := p.Load(); r != nil {
		return *r, true
	}
	var zero R
	return zero, false
}

// InFlight reports the number of sweeps currently running (0 or 1; the
// run lock serializes them but callers may be queued).
func (e *SweepEngine) InFlight() int64 { return e.inflight.Load() }

// RunOnce re-scores every user with a transaction in the current
// snapshot: one cohort gather, one full-graph compile and forward, then
// a bulk update of the last-known-score cache. Users whose feature fetch
// fails are skipped and counted, not fatal; ctx cancels the feature
// fetch stage.
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
	c, err := e.bn.gatherCohort(ctx, sv.Feats, sv.Norm, 0)
	if err != nil {
		return SweepReport{}, fmt.Errorf("server: sweep: %w", err)
	}
	rep := SweepReport{At: start, Epoch: c.snap.Epoch(), Candidates: c.candidates, Scored: len(c.users), Skipped: c.skipped}
	if rep.Scored > 0 {
		b := c.batch()
		out := c.scoreWith(b, sv.Model, nil)
		for _, m := range b.Matrices() {
			rep.Edges += m.NNZ()
		}
		b.Release()
		e.pred.RememberScoresFor(c.users, out, sv.Version)
		rep.Elapsed = time.Since(start)
		e.pred.Tel.ObserveSweep(rep.Elapsed, rep.Scored)
	} else {
		rep.Elapsed = time.Since(start)
	}
	e.last.Store(&rep)
	return rep, nil
}

// cohort is the input of one full-graph pass: the audit-eligible users
// of one snapshot whose features were fetched, in ascending order, and
// their packed feature rows.
type cohort struct {
	snap       *graph.Snapshot
	candidates int               // eligible users listed
	skipped    int               // listed users whose feature fetch failed
	users      []behavior.UserID // the fetched users, ascending
	nodes      []graph.NodeID    // the same users as graph nodes
	x          *tensor.Matrix    // row i is users[i]'s vector; nil when users is empty
}

// gatherCohort lists up to limit (0 = all) audit-eligible users of the
// current snapshot, under one txnMu read lock, and gathers their rows
// from feats at one cutoff through norm (nil = raw). Users whose fetch
// fails are skipped and counted; only a done ctx is an error. It is the
// one feature read of the sweep, the embed rebuild and the lifecycle
// cohort. The matrix is not pooled: the embed table keeps the
// rebuild's for its lifetime.
func (s *BNServer) gatherCohort(ctx context.Context, feats feature.Source, norm *feature.Norm, limit int) (*cohort, error) {
	c := &cohort{snap: s.Snapshot()}
	var users []behavior.UserID
	s.txnMu.RLock()
	for _, id := range c.snap.Nodes() {
		if s.hasTxn[behavior.UserID(id)] {
			users = append(users, behavior.UserID(id))
			if limit > 0 && len(users) >= limit {
				break
			}
		}
	}
	s.txnMu.RUnlock()
	c.candidates = len(users)
	if len(users) == 0 {
		return c, nil
	}
	vecs, errs := feature.FetchVectors(ctx, feats, users, time.Now(), norm)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("feature fetch: %w", err)
	}
	rows := vecs[:0]
	c.users = make([]behavior.UserID, 0, len(users))
	c.nodes = make([]graph.NodeID, 0, len(users))
	for i, u := range users {
		if errs[i] != nil {
			c.skipped++
			continue
		}
		rows = append(rows, vecs[i])
		c.users = append(c.users, u)
		c.nodes = append(c.nodes, graph.NodeID(u))
	}
	if len(rows) > 0 {
		c.x = tensor.New(len(rows), len(rows[0]))
		for i, vec := range rows {
			copy(c.x.Row(i), vec)
		}
	}
	return c, nil
}

// batch compiles the cohort's one full-graph batch over its snapshot,
// its features the raw rows. The caller releases it.
func (c *cohort) batch() *gnn.Batch {
	return gnn.FullBatch(c.snap, c.x, graph.FullOptions{Nodes: c.nodes})
}

// scoreWith scores the cohort under model over b, the cohort's batch,
// through the full-graph forward at float64. norm (nil = none) is
// applied to each packed row, which it never mutates
// (core.System.SetModel), so one raw cohort and one compiled batch can
// be scored under the candidate's and the live model's normalizers:
// only the batch's features change between the two, and b.X is the raw
// matrix again on return.
func (c *cohort) scoreWith(b *gnn.Batch, model gnn.Model, norm func([]float64) []float64) []float64 {
	if norm == nil {
		return gnn.Scores(model, b)
	}
	x := tensor.GetMatrix(c.x.Rows, c.x.Cols)
	for i := range c.nodes {
		copy(x.Row(i), norm(c.x.Row(i)))
	}
	b.X = x
	out := gnn.Scores(model, b)
	b.X = c.x
	tensor.PutMatrix(x)
	return out
}
