package eval

import (
	"math"
	"sort"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/metrics"
	"turbo/internal/tensor"
)

// servingF32Tol is the default -infer.f32-tol the prediction server
// gates quantized serving on; these tests hold a trained model to the
// same bound on the real holdout.
const servingF32Tol = 5e-3

// TestF32HoldoutEquivalence trains HAG on the tiny dataset and checks
// the float32 serving contract on the evaluation holdout: per-node
// logits within the serving tolerance, fraud decisions preserved away
// from the threshold, score ranking preserved up to tolerance-close
// pairs, and the holdout ROC-AUC unchanged beyond quantization noise.
func TestF32HoldoutEquivalence(t *testing.T) {
	a := getTiny(t)
	m, batch := TrainHAG(a, HAGFull, fastHyper(), 1)

	maxDelta, ok := gnn.ValidateF32(m, batch, servingF32Tol)
	if !ok {
		t.Fatalf("trained HAG fails the f32 gate: max logit delta %.3g > %.1g", maxDelta, servingF32Tol)
	}
	t.Logf("holdout f32 gate: max logit delta %.3g over %d nodes", maxDelta, batch.NumNodes)

	want := gnn.Scores(m, batch)
	f := gnn.AcquireFwd32()
	logits := m.Infer32(f, batch)
	got := make([]float64, batch.NumNodes)
	for i := range got {
		got[i] = tensor.SigmoidScalar(float64(logits.Data[i]))
	}
	gnn.ReleaseFwd32(f)

	// Probabilities move less than logits through the sigmoid (slope ≤ 1/4).
	const probTol = servingF32Tol
	w64, w32 := a.ScoresAt(want), a.ScoresAt(got)
	labels := a.TestLabels()

	// Decisions at the paper's audit threshold flip only within the
	// tolerance band around it.
	const threshold = 0.85
	for k := range w64 {
		d64, d32 := w64[k] >= threshold, w32[k] >= threshold
		if d64 != d32 && math.Abs(w64[k]-threshold) > probTol {
			t.Errorf("holdout node %d: decision flipped (f64 %.6f, f32 %.6f) outside the tolerance band", k, w64[k], w32[k])
		}
	}

	// Ranking by f32 score may permute only tolerance-close pairs: walking
	// the f64-descending order, an f32 score may exceed the running
	// minimum of its predecessors by at most 2·tol.
	order := make([]int, len(w64))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return w64[order[i]] > w64[order[j]] })
	runMin := math.Inf(1)
	for _, k := range order {
		if w32[k] > runMin+2*probTol {
			t.Errorf("holdout rank inversion beyond tolerance at node %d: f32 %.6f vs earlier min %.6f", k, w32[k], runMin)
		}
		if w32[k] < runMin {
			runMin = w32[k]
		}
	}

	auc64 := metrics.AUC(w64, labels)
	auc32 := metrics.AUC(w32, labels)
	if math.Abs(auc64-auc32) > 0.01 {
		t.Errorf("holdout AUC moved under f32: %.4f vs %.4f", auc64, auc32)
	}
	t.Logf("holdout AUC: f64 %.4f, f32 %.4f", auc64, auc32)
}
