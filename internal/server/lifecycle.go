package server

import (
	"context"
	"fmt"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/lifecycle"
	"turbo/internal/sweep"
	"turbo/internal/tensor"
)

// HoldoutFunc evaluates one candidate model on a labeled holdout set
// (typically the eval harness's test split replayed through the sweep
// scorer) and returns the gate's holdout report. The candidate's own
// normalizer must be applied to the holdout features — the candidate
// may have been fitted on different statistics than the live model.
type HoldoutFunc func(model gnn.Model, norm func([]float64) []float64) (*lifecycle.HoldoutReport, error)

// GateOptions wires the validation gate and the rollback monitor into a
// ModelManager (EnableGate). The zero value of Gate disables gating —
// every candidate swaps, as before; the zero value of Monitor disables
// the post-swap watch.
type GateOptions struct {
	// Gate bounds what a candidate must prove in shadow before SwapModel
	// is allowed.
	Gate lifecycle.GateConfig
	// Monitor bounds live health during the post-swap watch window.
	Monitor lifecycle.MonitorConfig
	// Holdout replays the candidate on a labeled holdout set; nil skips
	// the holdout half of the shadow report.
	Holdout HoldoutFunc
	// Engine scores the candidate/live cohort diff and the monitor's
	// score-shift probe; nil skips both.
	Engine *SweepEngine
	// CohortSize caps how many audit-eligible users the shadow cohort
	// holds (0 = all of them).
	CohortSize int
	// Logf receives lifecycle decisions (nil discards them).
	Logf func(string, ...any)
}

// HealthSnapshot reads the cumulative audit counters as the lifecycle
// monitor's health reading: Audits counts every completed outcome,
// Degraded the below-full tiers, Failed the outcomes that produced no
// usable score (shed load, unknown users).
func (p *PredictionServer) HealthSnapshot() lifecycle.Health {
	c := p.ServedCounts()
	served := c[TierFull] + c[TierFallback] + c[TierCache] + c[TierPrior]
	failed := c["shed"] + c["unknown"]
	return lifecycle.Health{
		Audits:   served + failed,
		Degraded: c["degraded"],
		Failed:   failed,
	}
}

// cohortRaw collects up to limit audit-eligible users from the current
// snapshot together with their raw (un-normalized) feature vectors.
// Users whose feature fetch fails are silently dropped — the cohort is
// a sample, not a census.
func (e *SweepEngine) cohortRaw(ctx context.Context, limit int) (*graph.Snapshot, []graph.NodeID, [][]float64, error) {
	feats := e.pred.Serving().Feats
	snap := e.bn.Snapshot()
	filter := e.bn.TxnFilter()
	var users []behavior.UserID
	for _, id := range snap.Nodes() {
		if filter(id) {
			users = append(users, behavior.UserID(id))
			if limit > 0 && len(users) >= limit {
				break
			}
		}
	}
	if len(users) == 0 {
		return snap, nil, nil, nil
	}
	vecs, errs := feature.FetchVectors(ctx, feats, users, time.Now())
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("server: cohort feature fetch: %w", err)
	}
	nodes := make([]graph.NodeID, 0, len(users))
	raw := make([][]float64, 0, len(users))
	for i, vec := range vecs {
		if errs[i] != nil {
			continue
		}
		nodes = append(nodes, graph.NodeID(users[i]))
		raw = append(raw, vec)
	}
	return snap, nodes, raw, nil
}

// scoreWith scores the cohort's raw vectors under one (model,
// normalizer) pair via the shard-parallel sweep kernels. The raw
// vectors are never mutated — each model normalizes its own copy, so
// the same cohort can be scored under the candidate and the live model.
func (e *SweepEngine) scoreWith(snap *graph.Snapshot, nodes []graph.NodeID, raw [][]float64, model gnn.Model, norm func([]float64) []float64) []float64 {
	x := tensor.GetMatrix(len(raw), len(raw[0]))
	for i, vec := range raw {
		if norm != nil {
			vec = norm(append([]float64(nil), vec...))
		}
		copy(x.Row(i), vec)
	}
	sg := graph.FullSubgraph(snap, graph.FullOptions{Nodes: nodes})
	b := gnn.NewBatch(sg, x)
	out := make([]float64, len(nodes))
	sweep.ScoresInto(out, model, b, e.Opts)
	b.Release()
	tensor.PutMatrix(x)
	return out
}

// ShadowPair scores one shared cohort of real users under the candidate
// and the live model — identical raw features and subgraph, each model
// applying its own normalizer — returning paired score slices for the
// gate's distribution-shift and disagreement checks. Reads only
// immutable state (snapshot, model parameters, bulk-fetched vectors),
// so it runs in parallel with ingestion and audits.
func (e *SweepEngine) ShadowPair(ctx context.Context, cand gnn.Model, candNorm func([]float64) []float64, limit int) (candScores, liveScores []float64, err error) {
	live := e.pred.Serving()
	if live.Model == nil {
		return nil, nil, fmt.Errorf("server: shadow: no live model attached")
	}
	if cand == nil {
		return nil, nil, fmt.Errorf("server: shadow: no candidate model")
	}
	snap, nodes, raw, err := e.cohortRaw(ctx, limit)
	if err != nil || len(nodes) == 0 {
		return nil, nil, err
	}
	candScores = e.scoreWith(snap, nodes, raw, cand, candNorm)
	liveScores = e.scoreWith(snap, nodes, raw, live.Model, live.Norm)
	return candScores, liveScores, nil
}

// CohortScores scores the current cohort under the live serving model —
// the rollback monitor's score-shift probe compares this against the
// pre-swap baseline captured by ShadowPair.
func (e *SweepEngine) CohortScores(ctx context.Context, limit int) ([]float64, error) {
	live := e.pred.Serving()
	if live.Model == nil {
		return nil, fmt.Errorf("server: cohort: no live model attached")
	}
	snap, nodes, raw, err := e.cohortRaw(ctx, limit)
	if err != nil || len(nodes) == 0 {
		return nil, err
	}
	return e.scoreWith(snap, nodes, raw, live.Model, live.Norm), nil
}
