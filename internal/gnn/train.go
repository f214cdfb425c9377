package gnn

import (
	"context"
	"fmt"
	"math"
	"time"

	"turbo/internal/autodiff"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// TrainConfig controls full-graph supervised training.
type TrainConfig struct {
	Epochs      int     // 0 selects 200
	LR          float64 // 0 selects 5e-3
	WeightDecay float64
	ClipNorm    float64 // 0 selects 5
	// BalanceClasses weights positive examples by the negative/positive
	// ratio, which the heavy class imbalance of D1 requires.
	BalanceClasses bool
	Dropout        float64
	Seed           uint64
	// Progress, when non-nil, receives (epoch, loss) once per epoch.
	Progress func(epoch int, loss float64)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.LR == 0 {
		c.LR = 5e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// TrainStats reports the outcome of a training run.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
	Elapsed   time.Duration
}

// Train fits the model on the batch with BCE loss over trainIdx, whose
// labels are given per node of the batch (only trainIdx entries are
// read). It returns the loss trajectory endpoint and the wall time,
// which the Fig. 8b scalability study records.
func Train(m Model, b *Batch, trainIdx []int, labels []float64, cfg TrainConfig) TrainStats {
	cfg = cfg.withDefaults()
	start := time.Now()
	opt := nn.NewAdam(m, cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	rng := tensor.NewRNG(cfg.Seed)

	trainLabels := make([]float64, len(trainIdx))
	var weights []float64
	if cfg.BalanceClasses {
		var pos int
		for _, i := range trainIdx {
			if labels[i] > 0.5 {
				pos++
			}
		}
		neg := len(trainIdx) - pos
		if pos > 0 && neg > 0 {
			// sqrt reweighting: enough gradient signal for the minority
			// class without destroying threshold-0.5 calibration.
			posW := math.Sqrt(float64(neg) / float64(pos))
			weights = make([]float64, len(trainIdx))
			for k, i := range trainIdx {
				if labels[i] > 0.5 {
					weights[k] = posW
				} else {
					weights[k] = 1
				}
			}
		}
	}
	for k, i := range trainIdx {
		trainLabels[k] = labels[i]
	}

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		tape := autodiff.NewTape()
		logits := m.Forward(tape, b, rng)
		sel := tape.SelectRows(logits, trainIdx)
		loss := tape.WeightedBCEWithLogits(sel, trainLabels, weights)
		lastLoss = loss.Scalar()
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			break
		}
		tape.Backward(loss)
		nn.ClipGradNorm(m, cfg.ClipNorm)
		opt.Step()
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
	}
	return TrainStats{Epochs: cfg.Epochs, FinalLoss: lastLoss, Elapsed: time.Since(start)}
}

// Scores runs the model in evaluation mode on the tape-free forward
// and returns the sigmoid fraud probability of every node in the batch.
func Scores(m Model, b *Batch) []float64 {
	out := make([]float64, b.NumNodes)
	f := AcquireFwd[float64]()
	defer ReleaseFwd(f)
	SigmoidScoresInto(out, m.Infer(f, b).Data[:b.NumNodes])
	return out
}

// SigmoidScoresInto converts a logit slice to fraud probabilities with
// the serving sigmoid; every scoring path (Scores, the sweep engine's
// per-shard emit, TapeScores' loop) must use this same scalar.
func SigmoidScoresInto(dst, logits []float64) {
	for i, v := range logits {
		dst[i] = tensor.SigmoidScalar(v)
	}
}

// TapeScores is the tape-backed evaluation path, kept as the reference
// the equivalence tests and benchmarks compare the fast path against.
func TapeScores(m Model, b *Batch) []float64 {
	tape := autodiff.NewTape()
	logits := m.Forward(tape, b, nil)
	out := make([]float64, b.NumNodes)
	for i := 0; i < b.NumNodes; i++ {
		out[i] = tensor.SigmoidScalar(logits.Value.Data[i])
	}
	return out
}

// Score returns the fraud probability of node 0 of the batch — by
// convention the target node of a sampled computation subgraph — which
// is the online-inference entry point. It runs the tape-free forward on
// the node's cone. It panics with ErrShallowSample on a batch that does
// not admit m; ScoreCtx reports that as an error instead.
func Score(m Model, b *Batch) float64 {
	if !b.admits(m) {
		panic(ErrShallowSample)
	}
	return score(m, b)
}

func score(m Model, b *Batch) float64 {
	f := AcquireFwd[float64]()
	s := tensor.SigmoidScalar(m.InferTarget(f, b, 0))
	ReleaseFwd(f)
	return s
}

// TapeScore is Score on the tape-backed reference path.
func TapeScore(m Model, b *Batch) float64 {
	if !b.admits(m) {
		panic(ErrShallowSample)
	}
	logits := m.Forward(autodiff.NewTape(), b, nil)
	return tensor.SigmoidScalar(logits.Value.Data[0])
}

// ScoreCtx is Score with a deadline check at the stage boundary: an
// audit whose budget is already spent fails fast instead of paying for
// a forward pass whose result nobody will use. The forward pass itself
// is pure in-memory compute and is not preempted once started.
func ScoreCtx(ctx context.Context, m Model, b *Batch) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !b.admits(m) {
		return 0, fmt.Errorf("gnn: scoring %s (%d layers) on a depth-%d sample: %w", m.Name(), Depth(m), b.Depth, ErrShallowSample)
	}
	return score(m, b), nil
}

// F32Tol is the float32 serving gate: the largest per-node
// |float64 − float32| logit gap ValidateF32 lets a model serve audits
// through the float32 forward with. A model version that exceeds it is
// scored in float64.
const F32Tol = 5e-3

// CanInfer32 reports whether m has a float32 instantiation of its
// forward.
func CanInfer32(m Model) bool { return len(m.specs().F32.Stacks) > 0 }

// Score32 scores node 0 of the batch through the float32 forward, and
// reports false when the model has none or the batch does not admit it
// (the caller's float64 fallback, ScoreCtx, then names the error). The
// final logit→probability sigmoid stays in float64, matching every other
// scoring path.
func Score32(m Model, b *Batch) (float64, bool) {
	if !b.admits(m) || !CanInfer32(m) {
		return 0, false
	}
	f := AcquireFwd[float32]()
	s := tensor.SigmoidScalar(float64(m.InferTarget32(f, b, 0)))
	ReleaseFwd(f)
	return s, true
}

// ValidateF32 compares the float32 logits against the float64 reference
// on every node of b and reports the largest absolute gap. ok is false
// when the model lacks the float32 forward or the gap exceeds tol — the
// caller must then serve float64.
func ValidateF32(m Model, b *Batch, tol float64) (maxDelta float64, ok bool) {
	if !CanInfer32(m) {
		return 0, false
	}
	f := AcquireFwd[float64]()
	defer ReleaseFwd(f)
	want := m.Infer(f, b)
	f32 := AcquireFwd[float32]()
	defer ReleaseFwd(f32)
	got := m.Infer32(f32, b)
	for i := 0; i < b.NumNodes; i++ {
		if d := math.Abs(want.Data[i] - float64(got.Data[i])); d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta, maxDelta <= tol
}
