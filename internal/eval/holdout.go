// Holdout replay for the validation gate: a candidate model retrained
// online is scored on the assembly's labeled test split — the same
// 80/20 UID holdout every offline experiment uses — before it may swap
// into the prediction server. The candidate's own normalizer is applied
// to the raw feature rows, because a retrain may have refitted the
// z-score statistics.
package eval

import (
	"fmt"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/lifecycle"
	"turbo/internal/metrics"
	"turbo/internal/server"
	"turbo/internal/tensor"
)

// HoldoutGate returns the server.HoldoutFunc the model-lifecycle gate
// calls for each retrained candidate: compile the full BN batch with the
// candidate's normalizer over the raw features, score every user, and
// evaluate the test split at thresh. precisionFloor parameterizes the
// recall-at-precision criterion (how much fraud the candidate catches
// while challenging few legitimate lessees).
func (a *Assembled) HoldoutGate(thresh, precisionFloor float64) server.HoldoutFunc {
	return func(model gnn.Model, norm func([]float64) []float64) (*lifecycle.HoldoutReport, error) {
		if model == nil {
			return nil, fmt.Errorf("eval: holdout: nil candidate model")
		}
		if len(a.TestIdx) == 0 {
			return nil, fmt.Errorf("eval: holdout: assembly has no test split")
		}
		x := a.X
		if norm != nil {
			x = tensor.New(a.RawX.Rows, a.RawX.Cols)
			for i := 0; i < a.RawX.Rows; i++ {
				copy(x.Row(i), norm(append([]float64(nil), a.RawX.Row(i)...)))
			}
		}
		b := gnn.FullBatch(a.Graph, x, graph.FullOptions{Nodes: a.Nodes})
		scores := a.ScoresAt(gnn.Scores(model, b))
		labels := a.TestLabels()
		rep := metrics.Evaluate(scores, labels, thresh)
		return &lifecycle.HoldoutReport{
			Size:              len(scores),
			AUC:               rep.AUC,
			Precision:         rep.Precision,
			Recall:            rep.Recall,
			F1:                rep.F1,
			RecallAtPrecision: metrics.RecallAtPrecision(scores, labels, precisionFloor),
			PrecisionFloor:    precisionFloor,
		}, nil
	}
}
