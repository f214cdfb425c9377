package autodiff

import (
	"math"
	"testing"
	"testing/quick"

	"turbo/internal/tensor"
)

// TestGradMatMulRandomShapes property-checks the matmul gradient against
// finite differences across random shapes.
func TestGradMatMulRandomShapes(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		n, k, m := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := tensor.RandNormal(n, k, 0.7, rng)
		b := tensor.RandNormal(k, m, 0.7, rng)
		ok := true
		check := func(x *tensor.Matrix, other func() float64, analytic *tensor.Matrix) {
			const eps = 1e-6
			for i := range x.Data {
				orig := x.Data[i]
				x.Data[i] = orig + eps
				up := other()
				x.Data[i] = orig - eps
				down := other()
				x.Data[i] = orig
				num := (up - down) / (2 * eps)
				if math.Abs(num-analytic.Data[i]) > 1e-4*(1+math.Abs(num)) {
					ok = false
				}
			}
		}
		forward := func() float64 {
			tp := NewTape()
			an := tp.Leaf(a, tensor.New(n, k))
			bn := tp.Leaf(b, tensor.New(k, m))
			return tp.SumAll(tp.Tanh(tp.MatMul(an, bn))).Scalar()
		}
		tp := NewTape()
		ga, gb := tensor.New(n, k), tensor.New(k, m)
		an := tp.Leaf(a, ga)
		bn := tp.Leaf(b, gb)
		tp.Backward(tp.SumAll(tp.Tanh(tp.MatMul(an, bn))))
		check(a, forward, ga)
		check(b, forward, gb)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSoftmaxGradientRowsSumToZero: because softmax outputs sum to 1 per
// row, the gradient of any loss w.r.t. the logits must sum to ~0 per row.
func TestSoftmaxGradientRowsSumToZero(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		rows, cols := 1+rng.Intn(4), 2+rng.Intn(5)
		x := tensor.RandNormal(rows, cols, 1, rng)
		w := tensor.RandNormal(rows, cols, 1, rng)
		tp := NewTape()
		g := tensor.New(rows, cols)
		xn := tp.Leaf(x, g)
		loss := tp.SumAll(tp.Mul(tp.SoftmaxRows(xn), tp.Const(w)))
		tp.Backward(loss)
		for i := 0; i < rows; i++ {
			var s float64
			for _, v := range g.Row(i) {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateLinearity: Aggregate is linear in H, so
// A(αH₁ + βH₂) = αA(H₁) + βA(H₂).
func TestAggregateLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		n, m, d := 2+rng.Intn(4), 2+rng.Intn(4), 1+rng.Intn(3)
		rows := make([][]int, n)
		weights := make([][]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if rng.Float64() < 0.5 {
					rows[i] = append(rows[i], j)
					weights[i] = append(weights[i], rng.Float64())
				}
			}
		}
		csr := newCSR(n, m, rows, weights)
		h1 := tensor.RandNormal(m, d, 1, rng)
		h2 := tensor.RandNormal(m, d, 1, rng)
		alpha, beta := rng.Float64(), rng.Float64()
		lhs := matMul(csr, h1.Scale(alpha).Add(h2.Scale(beta)))
		rhs := matMul(csr, h1).Scale(alpha).Add(matMul(csr, h2).Scale(beta))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
