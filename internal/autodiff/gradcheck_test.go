package autodiff

import (
	"math"
	"testing"

	"turbo/internal/tensor"
)

// numericGrad estimates d loss / d x[i] by central differences, where
// loss is recomputed from scratch by fn for each perturbation.
func numericGrad(x *tensor.Matrix, fn func() float64) *tensor.Matrix {
	const eps = 1e-6
	g := tensor.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := fn()
		x.Data[i] = orig - eps
		down := fn()
		x.Data[i] = orig
		g.Data[i] = (up - down) / (2 * eps)
	}
	return g
}

// checkGrad builds the scalar loss with build (given fresh leaf nodes for
// each input), runs Backward, and compares analytic gradients with
// central differences for every input.
func checkGrad(t *testing.T, name string, inputs []*tensor.Matrix, build func(tp *Tape, xs []*Node) *Node) {
	t.Helper()
	grads := make([]*tensor.Matrix, len(inputs))
	forward := func() float64 {
		tp := NewTape()
		xs := make([]*Node, len(inputs))
		for i, in := range inputs {
			grads[i] = tensor.New(in.Rows, in.Cols)
			xs[i] = tp.Leaf(in, grads[i])
		}
		return build(tp, xs).Scalar()
	}

	// Analytic pass.
	tp := NewTape()
	xs := make([]*Node, len(inputs))
	for i, in := range inputs {
		grads[i] = tensor.New(in.Rows, in.Cols)
		xs[i] = tp.Leaf(in, grads[i])
	}
	out := build(tp, xs)
	tp.Backward(out)
	analytic := make([]*tensor.Matrix, len(inputs))
	for i := range inputs {
		analytic[i] = grads[i].Clone()
	}

	for i, in := range inputs {
		numeric := numericGrad(in, forward)
		for k := range in.Data {
			a, n := analytic[i].Data[k], numeric.Data[k]
			if math.Abs(a-n) > 1e-4*(1+math.Abs(a)+math.Abs(n)) {
				t.Fatalf("%s: input %d element %d: analytic %v vs numeric %v", name, i, k, a, n)
			}
		}
	}
}

func randM(rows, cols int, seed uint64) *tensor.Matrix {
	return tensor.RandNormal(rows, cols, 0.8, tensor.NewRNG(seed))
}

func TestGradMatMul(t *testing.T) {
	checkGrad(t, "matmul", []*tensor.Matrix{randM(3, 4, 1), randM(4, 2, 2)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.MatMul(xs[0], xs[1])))
		})
}

func TestGradAddSubMul(t *testing.T) {
	checkGrad(t, "add-sub-mul", []*tensor.Matrix{randM(3, 3, 3), randM(3, 3, 4), randM(3, 3, 5)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Mul(tp.Add(xs[0], xs[1]), tp.Sub(xs[1], xs[2])))
		})
}

func TestGradScale(t *testing.T) {
	checkGrad(t, "scale", []*tensor.Matrix{randM(2, 5, 6)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Scale(xs[0], -2.5))
		})
}

func TestGradAddRowVector(t *testing.T) {
	checkGrad(t, "addRowVector", []*tensor.Matrix{randM(4, 3, 7), randM(1, 3, 8)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.AddRowVector(xs[0], xs[1])))
		})
}

func TestGradMulColVector(t *testing.T) {
	checkGrad(t, "mulColVector", []*tensor.Matrix{randM(4, 3, 9), randM(4, 1, 10)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.MulColVector(xs[0], xs[1])))
		})
}

func TestGradActivations(t *testing.T) {
	// Shift values away from the ReLU kink to keep finite differences
	// meaningful.
	x := randM(3, 4, 11)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] += 0.1
		}
	}
	checkGrad(t, "relu", []*tensor.Matrix{x},
		func(tp *Tape, xs []*Node) *Node { return tp.SumAll(tp.ReLU(xs[0])) })
	checkGrad(t, "tanh", []*tensor.Matrix{randM(3, 4, 12)},
		func(tp *Tape, xs []*Node) *Node { return tp.SumAll(tp.Tanh(xs[0])) })
	checkGrad(t, "sigmoid", []*tensor.Matrix{randM(3, 4, 13)},
		func(tp *Tape, xs []*Node) *Node { return tp.SumAll(tp.Sigmoid(xs[0])) })
	y := randM(3, 4, 14)
	for i := range y.Data {
		if math.Abs(y.Data[i]) < 0.05 {
			y.Data[i] += 0.1
		}
	}
	checkGrad(t, "leakyReLU", []*tensor.Matrix{y},
		func(tp *Tape, xs []*Node) *Node { return tp.SumAll(tp.LeakyReLU(xs[0], 0.2)) })
}

func TestGradSoftmaxRows(t *testing.T) {
	checkGrad(t, "softmaxRows", []*tensor.Matrix{randM(3, 5, 15), randM(3, 5, 16)},
		func(tp *Tape, xs []*Node) *Node {
			// Weighted sum so the gradient is non-trivial per element.
			return tp.SumAll(tp.Mul(tp.SoftmaxRows(xs[0]), xs[1]))
		})
}

func TestGradConcatSlice(t *testing.T) {
	checkGrad(t, "concatCols+slice", []*tensor.Matrix{randM(3, 2, 17), randM(3, 3, 18)},
		func(tp *Tape, xs []*Node) *Node {
			c := tp.ConcatCols(xs[0], xs[1])
			return tp.SumAll(tp.Tanh(tp.SliceCols(c, 1, 4)))
		})
	checkGrad(t, "concatRows", []*tensor.Matrix{randM(2, 3, 19), randM(4, 3, 20)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.ConcatRows(xs[0], xs[1])))
		})
}

func TestGradSelectRows(t *testing.T) {
	checkGrad(t, "selectRows", []*tensor.Matrix{randM(5, 3, 21)},
		func(tp *Tape, xs []*Node) *Node {
			// Repeated index exercises scatter-add accumulation.
			return tp.SumAll(tp.Tanh(tp.SelectRows(xs[0], []int{0, 2, 2, 4})))
		})
}

func TestGradSumRowsAndAll(t *testing.T) {
	checkGrad(t, "sumRows", []*tensor.Matrix{randM(4, 3, 22)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.SumRows(xs[0])))
		})
	checkGrad(t, "meanAll", []*tensor.Matrix{randM(4, 3, 23)},
		func(tp *Tape, xs []*Node) *Node { return tp.MeanAll(xs[0]) })
}

func TestGradSegmentSoftmax(t *testing.T) {
	segments := [][]int{{0, 1, 2}, {3, 4}, {5}}
	checkGrad(t, "segmentSoftmax", []*tensor.Matrix{randM(6, 1, 24), randM(6, 1, 25)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Mul(tp.SegmentSoftmax(xs[0], segments), xs[1]))
		})
}

func TestGradAggregate(t *testing.T) {
	csr := newCSR(3, 4,
		[][]int{{0, 1}, {2}, {0, 3}},
		[][]float64{{0.5, 0.5}, {1}, {0.3, 0.7}})
	checkGrad(t, "aggregate", []*tensor.Matrix{randM(4, 3, 26)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.Aggregate(csr, xs[0])))
		})
}

func TestGradBCEWithLogits(t *testing.T) {
	labels := []float64{1, 0, 1, 0}
	checkGrad(t, "bce", []*tensor.Matrix{randM(4, 1, 27)},
		func(tp *Tape, xs []*Node) *Node { return tp.BCEWithLogits(xs[0], labels) })
	weights := []float64{1, 2, 0.5, 3}
	checkGrad(t, "weightedBCE", []*tensor.Matrix{randM(4, 1, 28)},
		func(tp *Tape, xs []*Node) *Node {
			return tp.WeightedBCEWithLogits(xs[0], labels, weights)
		})
}

// TestGradDeepComposition checks a two-layer network end to end — the
// shape every model in the repo reduces to.
func TestGradDeepComposition(t *testing.T) {
	checkGrad(t, "two-layer",
		[]*tensor.Matrix{randM(5, 4, 29), randM(4, 6, 30), randM(1, 6, 31), randM(6, 1, 32)},
		func(tp *Tape, xs []*Node) *Node {
			h := tp.Tanh(tp.AddRowVector(tp.MatMul(xs[0], xs[1]), xs[2]))
			return tp.BCEWithLogits(tp.MatMul(h, xs[3]), []float64{1, 0, 0, 1, 1})
		})
}
