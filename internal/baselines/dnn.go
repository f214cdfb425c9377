package baselines

import (
	"turbo/internal/autodiff"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// DNN is the three-layer MLP baseline of §VI-A (128/64/32 hidden units)
// trained with Adam on class-balanced binary cross-entropy.
type DNN struct {
	Hidden  []int   // nil selects {128, 64, 32}
	Epochs  int     // 0 selects 200
	LR      float64 // 0 selects 1e-3
	Dropout float64
	Balance bool // weight positives by the class ratio
	Seed    uint64

	mlp *nn.MLP
}

// Name implements Classifier.
func (m *DNN) Name() string { return "DNN" }

// Fit implements Classifier.
func (m *DNN) Fit(x *tensor.Matrix, y []float64) {
	hidden := m.Hidden
	if len(hidden) == 0 {
		hidden = []int{128, 64, 32}
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 200
	}
	lr := m.LR
	if lr == 0 {
		lr = 1e-3
	}
	seed := m.Seed
	if seed == 0 {
		seed = 5
	}
	rng := tensor.NewRNG(seed)
	sizes := append(append([]int{x.Cols}, hidden...), 1)
	m.mlp = nn.NewMLP("dnn", sizes, nn.ActReLU, rng)
	opt := nn.NewAdam(m.mlp, lr)

	posW, negW := 1.0, 1.0
	if m.Balance {
		posW, negW = classWeights(y)
	}
	weights := make([]float64, len(y))
	for i, v := range y {
		if v > 0.5 {
			weights[i] = posW
		} else {
			weights[i] = negW
		}
	}
	dropRNG := rng.Split()
	t := autodiff.NewTape() // one tape for the run, reset per epoch
	for e := 0; e < epochs; e++ {
		t.Reset()
		in := t.Const(x)
		if m.Dropout > 0 {
			in = t.Dropout(in, m.Dropout, dropRNG)
		}
		logits := m.mlp.Forward(t, in)
		loss := t.WeightedBCEWithLogits(logits, y, weights)
		t.Backward(loss)
		nn.ClipGradNorm(m.mlp, 5)
		opt.Step()
	}
}

// Parameters returns the fitted MLP's parameters (nil before Fit).
func (m *DNN) Parameters() []*nn.Parameter {
	if m.mlp == nil {
		return nil
	}
	return m.mlp.Parameters()
}

// PredictProba implements Classifier on the tape-free forward path:
// inference needs no gradients, so the MLP runs on plain tensor kernels.
func (m *DNN) PredictProba(x *tensor.Matrix) []float64 {
	logits := m.mlp.Infer(x)
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = tensor.SigmoidScalar(logits.Data[i])
	}
	return out
}
