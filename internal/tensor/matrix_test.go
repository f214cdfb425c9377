package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewPanicsOnNegativeShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("wrong elements: %v", m)
	}
}

func TestFromRowsRejectsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("want 0x0, got %dx%d", m.Rows, m.Cols)
	}
}

func TestIdentityMatMul(t *testing.T) {
	identity := func(n int) *Matrix {
		m := New(n, n)
		for i := 0; i < n; i++ {
			m.Set(i, i, 1)
		}
		return m
	}
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MatMul(identity(3))
	if !got.Equal(a, 1e-12) {
		t.Fatalf("A·I != A: %v", got)
	}
	got = identity(2).MatMul(a)
	if !got.Equal(a, 1e-12) {
		t.Fatalf("I·A != A: %v", got)
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.MatMul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestMatMulTransB(t *testing.T) {
	rng := NewRNG(1)
	a := RandNormal(4, 5, 1, rng)
	b := RandNormal(3, 5, 1, rng)
	got := a.MatMulTransB(b)
	want := a.MatMul(b.Transpose())
	if !got.Equal(want, 1e-10) {
		t.Fatalf("MatMulTransB mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := NewRNG(2)
	a := RandNormal(5, 4, 1, rng)
	b := RandNormal(5, 3, 1, rng)
	got := a.MatMulTransA(b)
	want := a.Transpose().MatMul(b)
	if !got.Equal(want, 1e-10) {
		t.Fatalf("MatMulTransA mismatch")
	}
}

// TestMatMulParallelMatchesSerial forces the parallel path and compares
// with a hand-rolled serial product.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(3)
	a := RandNormal(200, 70, 1, rng)
	b := RandNormal(70, 90, 1, rng)
	got := a.MatMul(b) // large enough to trigger parallelRows
	want := New(200, 90)
	for i := 0; i < 200; i++ {
		for k := 0; k < 70; k++ {
			av := a.At(i, k)
			for j := 0; j < 90; j++ {
				want.Data[i*90+j] += av * b.At(k, j)
			}
		}
	}
	if !got.Equal(want, 1e-9) {
		t.Fatal("parallel matmul differs from serial")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := RandNormal(rows, cols, 1, rng)
		return m.Transpose().Transpose().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulAssociativity is a property check (A·B)·C == A·(B·C).
func TestMatMulAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		n1, n2, n3, n4 := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandNormal(n1, n2, 1, rng)
		b := RandNormal(n2, n3, 1, rng)
		c := RandNormal(n3, n4, 1, rng)
		left := a.MatMul(b).MatMul(c)
		right := a.MatMul(b.MatMul(c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulDistributivity checks A·(B+C) == A·B + A·C.
func TestMatMulDistributivity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		n1, n2, n3 := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandNormal(n1, n2, 1, rng)
		b := RandNormal(n2, n3, 1, rng)
		c := RandNormal(n2, n3, 1, rng)
		left := a.MatMul(b.Add(c))
		right := a.MatMul(b).Add(a.MatMul(c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := a.Add(b); !got.Equal(FromRows([][]float64{{11, 22}, {33, 44}}), 0) {
		t.Fatalf("add: %v", got)
	}
	if got := b.Sub(a); !got.Equal(FromRows([][]float64{{9, 18}, {27, 36}}), 0) {
		t.Fatalf("sub: %v", got)
	}
	if got := a.Mul(b); !got.Equal(FromRows([][]float64{{10, 40}, {90, 160}}), 0) {
		t.Fatalf("mul: %v", got)
	}
	if got := a.Scale(2); !got.Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("scale: %v", got)
	}
}

func TestAddDoesNotMutateReceiver(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}})
	_ = a.Add(b)
	if a.At(0, 0) != 1 || a.At(0, 1) != 2 {
		t.Fatalf("receiver mutated: %v", a)
	}
}

func TestAddInPlaceAndScaled(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}})
	a.AddInPlace(b)
	if !a.Equal(FromRows([][]float64{{4, 6}}), 0) {
		t.Fatalf("addInPlace: %v", a)
	}
	a.AddScaledInPlace(b, -1)
	if !a.Equal(FromRows([][]float64{{1, 2}}), 0) {
		t.Fatalf("addScaledInPlace: %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"add": func() { New(1, 2).Add(New(2, 1)) },
		"sub": func() { New(1, 2).Sub(New(2, 1)) },
		"mul": func() { New(1, 2).Mul(New(2, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	got := a.AddRowVector(v)
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !got.Equal(want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestMulColVector(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{2}, {3}})
	got := a.MulColVector(v)
	want := FromRows([][]float64{{2, 4}, {9, 12}})
	if !got.Equal(want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestConcatColsSliceColsRoundtrip(t *testing.T) {
	rng := NewRNG(4)
	a := RandNormal(3, 4, 1, rng)
	b := RandNormal(3, 2, 1, rng)
	c := a.ConcatCols(b)
	if c.Cols != 6 {
		t.Fatalf("cols %d", c.Cols)
	}
	if !c.SliceCols(0, 4).Equal(a, 0) || !c.SliceCols(4, 6).Equal(b, 0) {
		t.Fatal("concat/slice roundtrip failed")
	}
}

func TestConcatRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	c := a.ConcatRows(b)
	if c.Rows != 3 || c.At(2, 1) != 6 {
		t.Fatalf("got %v", c)
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float64{{1}, {2}, {3}})
	got := m.SelectRows([]int{2, 0, 2})
	want := FromRows([][]float64{{3}, {1}, {3}})
	if !got.Equal(want, 0) {
		t.Fatalf("got %v", got)
	}
}

func TestSumMeanMaxAbsNorm(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if m.Sum() != -1 {
		t.Fatalf("sum %v", m.Sum())
	}
	if m.Mean() != -0.5 {
		t.Fatalf("mean %v", m.Mean())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("maxAbs %v", m.MaxAbs())
	}
	if !almostEqual(m.FrobeniusNorm(), 5, 1e-12) {
		t.Fatalf("frobenius %v", m.FrobeniusNorm())
	}
}

func TestEmptyMatrixStats(t *testing.T) {
	m := New(0, 0)
	if m.Mean() != 0 || m.Sum() != 0 || m.MaxAbs() != 0 {
		t.Fatal("empty matrix stats should be zero")
	}
}

func TestApplyAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, -2}})
	sq := m.Apply(func(v float64) float64 { return v * v })
	if !sq.Equal(FromRows([][]float64{{1, 4}}), 0) {
		t.Fatalf("apply: %v", sq)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestZeroFill(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	m.Fill(7)
	if m.At(0, 0) != 7 || m.At(0, 1) != 7 {
		t.Fatalf("fill: %v", m)
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("zero: %v", m)
	}
}

func TestEqualShapeAndTolerance(t *testing.T) {
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1.0000001}})
	if a.Equal(New(2, 1), 1) {
		t.Fatal("different shapes must not be equal")
	}
	if !a.Equal(b, 1e-3) {
		t.Fatal("within tolerance should be equal")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("outside tolerance should differ")
	}
}

func TestStringRendersShape(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" || len(s) < 10 {
		t.Fatalf("weak String output %q", s)
	}
}
