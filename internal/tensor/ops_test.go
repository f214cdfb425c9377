package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReLU(t *testing.T) {
	m := FromRows([][]float64{{-1, 0, 2}})
	got := ReLU(m)
	want := FromRows([][]float64{{0, 0, 2}})
	if !got.Equal(want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestTanhMatchesMath(t *testing.T) {
	m := FromRows([][]float64{{-2, 0, 1.5}})
	got := Tanh(m)
	for i, v := range m.Data {
		if !almostEqual(got.Data[i], math.Tanh(v), 1e-15) {
			t.Fatalf("tanh(%v) = %v", v, got.Data[i])
		}
	}
}

func TestSigmoidStableAtExtremes(t *testing.T) {
	if v := SigmoidScalar(1000); v != 1 {
		t.Fatalf("sigmoid(1000) = %v", v)
	}
	if v := SigmoidScalar(-1000); v != 0 {
		t.Fatalf("sigmoid(-1000) = %v", v)
	}
	if v := SigmoidScalar(0); v != 0.5 {
		t.Fatalf("sigmoid(0) = %v", v)
	}
	// Symmetry: σ(-x) = 1 - σ(x).
	for _, x := range []float64{0.1, 1, 5, 20} {
		if !almostEqual(SigmoidScalar(-x), 1-SigmoidScalar(x), 1e-12) {
			t.Fatalf("sigmoid asymmetric at %v", x)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		m := RandNormal(1+rng.Intn(5), 1+rng.Intn(6), 3, rng)
		s := SoftmaxRows(m)
		for i := 0; i < s.Rows; i++ {
			var sum float64
			for _, v := range s.Row(i) {
				if v < 0 {
					return false
				}
				sum += v
			}
			if !almostEqual(sum, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}})
	shifted := m.Apply(func(v float64) float64 { return v + 1000 })
	if !SoftmaxRows(m).Equal(SoftmaxRows(shifted), 1e-9) {
		t.Fatal("softmax not shift invariant")
	}
}

func TestSoftmaxExtremeValues(t *testing.T) {
	m := FromRows([][]float64{{-1e300, 0, 1e300}})
	s := SoftmaxRows(m)
	for _, v := range s.Data {
		if math.IsNaN(v) {
			t.Fatal("softmax produced NaN")
		}
	}
	if !almostEqual(s.At(0, 2), 1, 1e-9) {
		t.Fatalf("max element should dominate: %v", s)
	}
}

func TestSumRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	rows := SumRows(m)
	if rows.At(0, 0) != 3 || rows.At(1, 0) != 7 {
		t.Fatalf("sumRows %v", rows)
	}
	cols := New(1, 2)
	SumColsInto(cols, m)
	if cols.At(0, 0) != 4 || cols.At(0, 1) != 6 {
		t.Fatalf("sumCols %v", cols)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}
