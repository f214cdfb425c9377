package server

import (
	"context"
	"fmt"

	"turbo/internal/gnn"
	"turbo/internal/lifecycle"
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

// ShadowPair scores one shared cohort of real users under the candidate
// and the live model — identical raw features and one compiled batch,
// each model applying its own normalizer — returning paired score slices
// for the gate's distribution-shift and disagreement checks. Reads only
// immutable state (snapshot, model parameters, bulk-fetched vectors),
// so it runs in parallel with ingestion and audits. The cohort is
// gathered raw, not through the feature table's row memo: the memo
// holds one normalizer per row, and a shadow run must not evict the
// live model's.
func (e *SweepEngine) ShadowPair(ctx context.Context, cand gnn.Model, candNorm func([]float64) []float64, limit int) (candScores, liveScores []float64, err error) {
	live := e.pred.Serving()
	if live.Model == nil {
		return nil, nil, fmt.Errorf("server: shadow: no live model attached")
	}
	if cand == nil {
		return nil, nil, fmt.Errorf("server: shadow: no candidate model")
	}
	c, err := e.bn.gatherCohort(ctx, e.bn.Snapshot(), live.Feats, nil, limit)
	if err != nil {
		return nil, nil, fmt.Errorf("server: shadow: %w", err)
	}
	if len(c.nodes) == 0 {
		return nil, nil, nil
	}
	b := c.batch()
	defer b.Release()
	return c.scoreWith(b, cand, candNorm), c.scoreWith(b, live.Model, live.Norm.Func()), nil
}

// CohortScores scores the current cohort under the live serving model —
// the rollback monitor's score-shift probe compares this against the
// pre-swap baseline captured by ShadowPair.
func (e *SweepEngine) CohortScores(ctx context.Context, limit int) ([]float64, error) {
	live := e.pred.Serving()
	if live.Model == nil {
		return nil, fmt.Errorf("server: cohort: no live model attached")
	}
	c, err := e.bn.gatherCohort(ctx, e.bn.Snapshot(), live.Feats, nil, limit)
	if err != nil {
		return nil, fmt.Errorf("server: cohort: %w", err)
	}
	if len(c.nodes) == 0 {
		return nil, nil
	}
	b := c.batch()
	defer b.Release()
	return c.scoreWith(b, live.Model, live.Norm.Func()), nil
}
