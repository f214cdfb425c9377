package autodiff

import (
	"math"
	"testing"

	"turbo/internal/tensor"
)

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	x := tp.Param(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-scalar Backward")
		}
	}()
	tp.Backward(x)
}

func TestConstGetsNoGradient(t *testing.T) {
	tp := NewTape()
	c := tp.Const(tensor.FromRows([][]float64{{1, 2}}))
	p := tp.Param(tensor.FromRows([][]float64{{3}, {4}}))
	out := tp.SumAll(tp.MatMul(c, p))
	tp.Backward(out)
	if c.Grad != nil {
		t.Fatal("const received a gradient buffer")
	}
	if p.Grad == nil || p.Grad.Data[0] != 1 || p.Grad.Data[1] != 2 {
		t.Fatalf("param grad wrong: %v", p.Grad)
	}
}

func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	v := tensor.FromRows([][]float64{{2}})
	g := tensor.New(1, 1)
	for i := 0; i < 3; i++ {
		tp := NewTape()
		x := tp.Leaf(v, g)
		tp.Backward(tp.Scale(x, 5))
	}
	if g.Data[0] != 15 {
		t.Fatalf("grad should accumulate to 15, got %v", g.Data[0])
	}
}

func TestDiamondGraphAccumulation(t *testing.T) {
	// y = x*x + x*x through two separate paths: dy/dx = 4x.
	v := tensor.FromRows([][]float64{{3}})
	g := tensor.New(1, 1)
	tp := NewTape()
	x := tp.Leaf(v, g)
	a := tp.Mul(x, x)
	b := tp.Mul(x, x)
	tp.Backward(tp.SumAll(tp.Add(a, b)))
	if g.Data[0] != 12 {
		t.Fatalf("diamond grad: want 12, got %v", g.Data[0])
	}
}

func TestLeafShapeMismatchPanics(t *testing.T) {
	tp := NewTape()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp.Leaf(tensor.New(2, 2), tensor.New(1, 2))
}

func TestBackwardWithSeed(t *testing.T) {
	v := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	g := tensor.New(2, 2)
	tp := NewTape()
	x := tp.Leaf(v, g)
	y := tp.Scale(x, 3)
	seed := tensor.FromRows([][]float64{{1, 0}, {0, 2}})
	tp.BackwardWithSeed(y, seed)
	want := tensor.FromRows([][]float64{{3, 0}, {0, 6}})
	if !g.Equal(want, 0) {
		t.Fatalf("seeded grad: %v", g)
	}
}

func TestTapeResetAndLen(t *testing.T) {
	tp := NewTape()
	tp.Const(tensor.New(1, 1))
	tp.Const(tensor.New(1, 1))
	if tp.Len() != 2 {
		t.Fatalf("len %d", tp.Len())
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatalf("len after reset %d", tp.Len())
	}
}

func TestDropoutEvalModeIsIdentity(t *testing.T) {
	tp := NewTape()
	x := tp.Const(tensor.FromRows([][]float64{{1, 2, 3}}))
	if tp.Dropout(x, 0.5, nil) != x {
		t.Fatal("nil rng must return input unchanged")
	}
	if tp.Dropout(x, 0, tensor.NewRNG(1)) != x {
		t.Fatal("rate 0 must return input unchanged")
	}
}

func TestDropoutScalesKeptUnits(t *testing.T) {
	tp := NewTape()
	x := tp.Const(tensor.FromRows([][]float64{{1, 1, 1, 1, 1, 1, 1, 1}}))
	d := tp.Dropout(x, 0.5, tensor.NewRNG(3))
	for _, v := range d.Value.Data {
		if v != 0 && v != 2 {
			t.Fatalf("inverted dropout value should be 0 or 1/(1-rate): %v", v)
		}
	}
}

func TestBCEWithLogitsKnownValue(t *testing.T) {
	tp := NewTape()
	logits := tp.Const(tensor.FromRows([][]float64{{0}, {0}}))
	loss := tp.BCEWithLogits(logits, []float64{1, 0})
	// -log(0.5) for both examples.
	want := 0.6931471805599453
	if got := loss.Scalar(); got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("bce at 0 logits: %v", got)
	}
}

func TestBCEWithLogitsValidatesShapes(t *testing.T) {
	tp := NewTape()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp.BCEWithLogits(tp.Const(tensor.New(2, 2)), []float64{1, 0})
}

func TestSegmentSoftmaxUncoveredRowsAreZero(t *testing.T) {
	tp := NewTape()
	x := tp.Const(tensor.FromRows([][]float64{{1}, {2}, {3}}))
	s := tp.SegmentSoftmax(x, [][]int{{0, 1}})
	if s.Value.Data[2] != 0 {
		t.Fatalf("uncovered row should be 0, got %v", s.Value.Data[2])
	}
	sum := s.Value.Data[0] + s.Value.Data[1]
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("segment should sum to 1: %v", sum)
	}
}

func TestCSRMatMulKnownValues(t *testing.T) {
	csr := newCSR(2, 3, [][]int{{0, 2}, {1}}, [][]float64{{1, 2}, {3}})
	h := tensor.FromRows([][]float64{{1, 0}, {0, 1}, {2, 2}})
	got := matMul(csr, h)
	want := tensor.FromRows([][]float64{{5, 4}, {0, 3}})
	if !got.Equal(want, 0) {
		t.Fatalf("csr matmul: %v", got)
	}
	if csr.NNZ() != 3 {
		t.Fatalf("nnz %d", csr.NNZ())
	}
}

func TestCSRMatMulTransMatchesDense(t *testing.T) {
	csr := newCSR(3, 4,
		[][]int{{0, 1}, {2, 3}, {1}},
		[][]float64{{0.5, 1.5}, {2, 1}, {1}})
	dense := tensor.New(3, 4)
	for i := 0; i < 3; i++ {
		for p := csr.RowPtr[i]; p < csr.RowPtr[i+1]; p++ {
			dense.Set(i, int(csr.ColIdx[p]), csr.Weights[p])
		}
	}
	g := tensor.RandNormal(3, 2, 1, tensor.NewRNG(5))
	got := tensor.New(4, 2)
	addMatMulTrans(got, csr, g)
	want := dense.MatMulTransA(g)
	if !got.Equal(want, 1e-12) {
		t.Fatal("csr transpose product differs from dense")
	}
}

// tapeStep records one training-like step over every op of the tape on
// n rows and runs Backward, accumulating into gs. It returns the loss.
func tapeStep(tp *Tape, n int, ps, gs []*tensor.Matrix) float64 {
	rng := tensor.NewRNG(uint64(n))
	x := tensor.RandNormal(n, 4, 1, rng)
	rows := make([][]int, n)
	ws := make([][]float64, n)
	for i := range rows {
		rows[i] = []int{(i + 1) % n, (i + 3) % n}
		ws[i] = []float64{0.5, -0.25}
	}
	labels := make([]float64, n)
	idx := make([]int, n)
	for i := range labels {
		labels[i] = float64(i % 2)
		idx[i] = n - 1 - i
	}
	w, b, v := tp.Leaf(ps[0], gs[0]), tp.Leaf(ps[1], gs[1]), tp.Leaf(ps[2], gs[2])
	h := tp.ReLU(tp.AddRowVector(tp.MatMul(tp.Const(x), w), b)) // n×6
	a := tp.Aggregate(newCSR(n, n, rows, ws), h)
	s := tp.SoftmaxRows(tp.ConcatCols(tp.Tanh(a), tp.Sigmoid(h))) // n×12
	s = tp.Dropout(s, 0.3, rng)
	c := tp.SliceCols(s, 2, 8)
	m := tp.Mul(tp.Sub(c, h), tp.Add(c, tp.Scale(h, 0.5)))
	// The last of idx's rows is in no segment, so its weight is 0.
	att := tp.SegmentSoftmax(tp.SumRows(tp.LeakyReLU(m, 0.2)), [][]int{idx[:n/2], idx[n/2 : n-1]})
	z := tp.MulColVector(m, att)
	logits := tp.MatMul(tp.ConcatRows(z, z), v) // 2n×1
	sel := tp.SelectRows(logits, idx)
	loss := tp.Add(tp.WeightedBCEWithLogits(sel, labels, labels), tp.Scale(tp.SumAll(z), 1e-3))
	loss = tp.Add(loss, tp.MeanAll(m))
	tp.Backward(loss)
	return loss.Scalar()
}

// TestTapeResetReusesBuffers runs tapeStep on one tape reset between
// steps and on a fresh tape per step: the loss and every gradient must
// agree bit for bit, also after the reused tape's buffers were filled
// with NaN (so a buffer that is accumulated into but not zeroed shows),
// and a step of the same or fewer rows must get every buffer back.
func TestTapeResetReusesBuffers(t *testing.T) {
	rng := tensor.NewRNG(9)
	ps := []*tensor.Matrix{tensor.RandNormal(4, 6, 1, rng), tensor.RandNormal(1, 6, 1, rng), tensor.RandNormal(6, 1, 1, rng)}
	newGrads := func() []*tensor.Matrix {
		return []*tensor.Matrix{tensor.New(4, 6), tensor.New(1, 6), tensor.New(6, 1)}
	}
	reused := NewTape()
	var first []*tensor.Matrix
	for step, n := range []int{12, 12, 7, 12, 20} {
		want := newGrads()
		wantLoss := tapeStep(NewTape(), n, ps, want)
		for _, m := range append(append([]*tensor.Matrix{}, reused.bufs...), reused.scratch[:]...) {
			if m != nil {
				m.Fill(math.NaN())
			}
		}
		reused.Reset()
		got := newGrads()
		gotLoss := tapeStep(reused, n, ps, got)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("step %d (n=%d): loss %v on the reset tape, %v on a fresh one", step, n, gotLoss, wantLoss)
		}
		for i := range want {
			for k := range want[i].Data {
				if math.Float64bits(got[i].Data[k]) != math.Float64bits(want[i].Data[k]) {
					t.Fatalf("step %d (n=%d): grad %d[%d] %v on the reset tape, %v on a fresh one", step, n, i, k, got[i].Data[k], want[i].Data[k])
				}
			}
		}
		if step == 0 {
			first = append([]*tensor.Matrix{}, reused.bufs...)
			continue
		}
		if step == 1 {
			// Both tapes read their scratch in the same order, so a
			// scratch that is summed into without being zeroed would
			// agree with itself: hold the reset tape to central
			// differences as well.
			for i, p := range ps {
				numeric := numericGrad(p, func() float64 { return tapeStep(NewTape(), n, ps, newGrads()) })
				for k, nv := range numeric.Data {
					if a := got[i].Data[k]; math.Abs(a-nv) > 1e-4*(1+math.Abs(a)+math.Abs(nv)) {
						t.Fatalf("n=%d: grad %d[%d] %v on the reset tape, numeric %v", n, i, k, a, nv)
					}
				}
			}
		}
		if n <= 12 {
			if len(reused.bufs) != len(first) {
				t.Fatalf("step %d (n=%d): %d buffers, first step had %d", step, n, len(reused.bufs), len(first))
			}
			for i, m := range first {
				if reused.bufs[i] != m {
					t.Fatalf("step %d (n=%d): buffer %d was replaced", step, n, i)
				}
			}
		}
	}
}
