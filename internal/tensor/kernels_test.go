package tensor

import (
	"math"
	"testing"
)

// naiveMatMul is the historical scalar triple loop, kept verbatim as the
// bitwise reference for the blocked kernel.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := out.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return out
}

func randMat(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// sprinkle exact zeros so the skip-zero branch is exercised
	for i := 0; i < len(m.Data); i += 17 {
		m.Data[i] = 0
	}
	return m
}

// TestMatMulBlockedBitwiseEqualsNaive is the kernel-equivalence smoke
// pinned by scripts/ci.sh: the blocked (and SIMD, when available)
// float64 kernel must be bitwise-identical to the naive scalar loop for
// shapes on both sides of the panel and parallel thresholds.
func TestMatMulBlockedBitwiseEqualsNaive(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {64, 16, 32}, {64, 33, 9},
		{128, 200, 300}, // kd*n exceeds one panel → blocked path
		{257, 300, 129}, // blocked + parallel path
	}
	for _, s := range shapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		got := a.MatMul(b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: element %d differs: %v vs %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulPartitionIndependence pins the contract the sweep engine
// relies on: any contiguous row partition of MatMulRangeInto produces
// output bitwise equal to a single MatMulInto call.
func TestMatMulPartitionIndependence(t *testing.T) {
	rng := NewRNG(11)
	a := randMat(rng, 150, 80)
	b := randMat(rng, 80, 90)
	whole := New(150, 90)
	MatMulInto(whole, a, b)
	parts := New(150, 90)
	for lo := 0; lo < 150; lo += 37 {
		hi := lo + 37
		if hi > 150 {
			hi = 150
		}
		MatMulRangeInto(parts, a, b, lo, hi)
	}
	for i := range whole.Data {
		if whole.Data[i] != parts.Data[i] {
			t.Fatalf("element %d differs across partitions", i)
		}
	}
}

func TestDaxpyBitwiseEqualsScalar(t *testing.T) {
	rng := NewRNG(3)
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 100} {
		dst := make([]float64, n)
		ref := make([]float64, n)
		src := make([]float64, n)
		for i := range src {
			dst[i] = rng.NormFloat64()
			ref[i] = dst[i]
			src[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		daxpy(dst, src, alpha)
		for i := range ref {
			ref[i] += alpha * src[i]
		}
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("n=%d: element %d differs: %v vs %v", n, i, dst[i], ref[i])
			}
		}
	}
}

// TestSgemmRowMatchesGeneric compares the SIMD float32 row kernel to the
// portable loop. FMA changes rounding, so this is a tolerance check.
func TestSgemmRowMatchesGeneric(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD kernels on this machine")
	}
	rng := NewRNG(5)
	for _, n := range []int{1, 5, 8, 16, 24, 32, 33, 40, 64, 71} {
		for _, kd := range []int{1, 3, 16, 40} {
			arow := make([]float32, kd)
			b := make([]float32, kd*n)
			for i := range arow {
				arow[i] = float32(rng.NormFloat64())
			}
			for i := range b {
				b[i] = float32(rng.NormFloat64())
			}
			got := make([]float32, n)
			want := make([]float32, n)
			sgemmRow(got, arow, b, n)
			sgemmRowGeneric(want, arow, b, n)
			for j := range want {
				if d := math.Abs(float64(got[j] - want[j])); d > 1e-4 {
					t.Fatalf("n=%d kd=%d: col %d differs by %g (%v vs %v)", n, kd, j, d, got[j], want[j])
				}
			}
		}
	}
}

func TestCsrRowMatchesGeneric(t *testing.T) {
	if !simdEnabled {
		t.Skip("no SIMD kernels on this machine")
	}
	rng := NewRNG(9)
	const hRows = 20
	for _, n := range []int{1, 8, 16, 32, 48, 50} {
		h := make([]float32, hRows*n)
		for i := range h {
			h[i] = float32(rng.NormFloat64())
		}
		for _, nnz := range []int{0, 1, 5, 19} {
			cols := make([]int32, nnz)
			w := make([]float32, nnz)
			for p := range cols {
				cols[p] = int32((p * 7) % hRows)
				w[p] = float32(rng.NormFloat64())
			}
			got := make([]float32, n)
			want := make([]float32, n)
			csrRow(got, cols, w, h, n)
			csrRowGeneric(want, cols, w, h, n)
			for j := range want {
				if d := math.Abs(float64(got[j] - want[j])); d > 1e-4 {
					t.Fatalf("n=%d nnz=%d: col %d differs by %g", n, nnz, j, d)
				}
			}
		}
	}
}

func TestExp32Accuracy(t *testing.T) {
	for x0 := -87.0; x0 <= 88.0; x0 += 0.0137 {
		x := float64(float32(x0)) // quantize the input once so only kernel error is measured
		got := float64(Exp32(float32(x)))
		want := math.Exp(x)
		rel := math.Abs(got-want) / want
		if rel > 5e-7 {
			t.Fatalf("Exp32(%g): rel err %g", x, rel)
		}
	}
	if Exp32(1000) != float32(math.Inf(1)) {
		t.Fatal("Exp32 overflow should be +Inf")
	}
	if Exp32(-1000) != 0 {
		t.Fatal("Exp32 underflow should be 0")
	}
}

func TestTanh32Accuracy(t *testing.T) {
	for x := -12.0; x <= 12.0; x += 0.0091 {
		got := float64(Tanh32(float32(x)))
		want := math.Tanh(x)
		if d := math.Abs(got - want); d > 1e-6 {
			t.Fatalf("Tanh32(%g): abs err %g", x, d)
		}
	}
}

func TestSigmoid32Accuracy(t *testing.T) {
	for x := -30.0; x <= 30.0; x += 0.017 {
		got := float64(Sigmoid32(float32(x)))
		want := SigmoidScalar(x)
		if d := math.Abs(got - want); d > 1e-6 {
			t.Fatalf("Sigmoid32(%g): abs err %g", x, d)
		}
	}
}

// TestVectorTranscendentals32Accuracy holds the 8-wide exp/tanh/sigmoid
// kernels (and their scalar tails) to the same error budget as the
// scalar versions, on lengths that exercise both the vector body and
// the tail.
func TestVectorTranscendentals32Accuracy(t *testing.T) {
	const n = 1003 // 125 vector iterations + 3-element scalar tail
	xs := make([]float32, n)
	rng := NewRNG(29)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64() * 20)
	}
	xs[0], xs[1], xs[2] = -87, 0, 88

	v := append([]float32(nil), xs...)
	Exp32InPlace(v)
	for i, x := range xs {
		want := math.Exp(float64(x))
		if rel := math.Abs(float64(v[i])-want) / want; rel > 5e-7 {
			t.Fatalf("Exp32InPlace[%d](%g): rel err %g", i, x, rel)
		}
	}

	v = append([]float32(nil), xs...)
	tanh32Slice(v)
	for i, x := range xs {
		if d := math.Abs(float64(v[i]) - math.Tanh(float64(x))); d > 1e-6 {
			t.Fatalf("tanh32Slice[%d](%g): abs err %g", i, x, d)
		}
	}

	v = append([]float32(nil), xs...)
	sigmoid32Slice(v)
	for i, x := range xs {
		if d := math.Abs(float64(v[i]) - SigmoidScalar(float64(x))); d > 1e-6 {
			t.Fatalf("sigmoid32Slice[%d](%g): abs err %g", i, x, d)
		}
	}
}

func TestReLU32InPlaceMatchesScalar(t *testing.T) {
	rng := NewRNG(31)
	m := New32(7, 13) // 91 elements: vector body + 3-element tail
	want := make([]float32, len(m.Data))
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
		want[i] = m.Data[i]
		if want[i] < 0 {
			want[i] = 0
		}
	}
	ReLU32InPlace(m)
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("element %d: got %g want %g", i, m.Data[i], want[i])
		}
	}
}

// TestMatMul32NarrowAgainstGeneric pins the 1- and 2-column fast paths
// (per-row dot products) to the generic row kernel within float32
// reassociation tolerance.
func TestMatMul32NarrowAgainstGeneric(t *testing.T) {
	rng := NewRNG(37)
	for _, n := range []int{1, 2} {
		for _, k := range []int{1, 3, 8, 16, 33} {
			a := Quantize(randMat(rng, 11, k))
			b := Quantize(randMat(rng, k, n))
			got := New32(11, n)
			MatMul32Into(got, a, b)
			want := make([]float32, 11*n)
			for i := 0; i < 11; i++ {
				sgemmRowGeneric(want[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n)
			}
			for i := range want {
				if d := math.Abs(float64(got.Data[i]) - float64(want[i])); d > 1e-5 {
					t.Fatalf("n=%d k=%d element %d differs by %g", n, k, i, d)
				}
			}
		}
	}
}

// TestMatMul32FourRowAgainstOneRow pins the 4-row register-tiled path
// bitwise against the one-row kernels: both accumulate each output row
// in the same ascending-k FMA order, so blocking rows must not change a
// single bit. Row counts straddle the 4-row blocking (remainder rows 0,
// 1 and 3), and n=20 exercises the generic <8-column tail inside
// sgemmRows4.
func TestMatMul32FourRowAgainstOneRow(t *testing.T) {
	if !simdEnabled {
		t.Skip("portable build: no 4-row kernel")
	}
	rng := NewRNG(91)
	for _, rows := range []int{4, 5, 7, 12} {
		for _, n := range []int{8, 16, 20, 32} {
			for _, k := range []int{1, 9, 16} {
				a := Quantize(randMat(rng, rows, k))
				b := Quantize(randMat(rng, k, n))
				got := New32(rows, n)
				MatMul32Into(got, a, b)
				want := New32(rows, n)
				for i := 0; i < rows; i++ {
					sgemmRow(want.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("rows=%d n=%d k=%d element %d: 4-row %g vs 1-row %g",
							rows, n, k, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestMatMul32AgainstFloat64(t *testing.T) {
	rng := NewRNG(21)
	a := randMat(rng, 60, 33)
	b := randMat(rng, 33, 24)
	want := a.MatMul(b)
	a32, b32 := Quantize(a), Quantize(b)
	got := New32(60, 24)
	MatMul32Into(got, a32, b32)
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > 1e-4 {
			t.Fatalf("element %d differs by %g", i, d)
		}
	}
}

func TestCSR32MatMulAgainstGather(t *testing.T) {
	rng := NewRNG(23)
	h := randMat(rng, 10, 16)
	h32 := Quantize(h)
	c := &CSR32{
		NRows:   4,
		NCols:   10,
		RowPtr:  []int{0, 2, 2, 5, 6},
		ColIdx:  []int32{1, 3, 0, 9, 2, 7},
		Weights: []float32{0.5, 0.25, 1, -1, 2, 0.125},
	}
	dst := New32(4, 16)
	c.MatMulInto(dst, h32)
	for i := 0; i < c.NRows; i++ {
		want := make([]float64, 16)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			for j := 0; j < 16; j++ {
				want[j] += float64(c.Weights[p]) * float64(h32.At(int(c.ColIdx[p]), j))
			}
		}
		row := New32(1, 16)
		CSRRow32Into(row.Data, c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]], c.Weights[c.RowPtr[i]:c.RowPtr[i+1]], h32)
		for j := 0; j < 16; j++ {
			if d := math.Abs(float64(dst.At(i, j)) - want[j]); d > 1e-4 {
				t.Fatalf("row %d col %d differs by %g", i, j, d)
			}
			if dst.At(i, j) != row.At(0, j) {
				t.Fatalf("CSRRow32Into row %d col %d differs from MatMulInto", i, j)
			}
		}
	}
}

// TestCSR32MatMulColsInto pins the strided column-block aggregation
// (multi-head attention writing each head into its slot) to the plain
// MatMulInto on a fresh destination.
func TestCSR32MatMulColsInto(t *testing.T) {
	rng := NewRNG(41)
	h := Quantize(randMat(rng, 10, 8))
	c := &CSR32{
		NRows:   4,
		NCols:   10,
		RowPtr:  []int{0, 2, 2, 5, 6},
		ColIdx:  []int32{1, 3, 0, 9, 2, 7},
		Weights: []float32{0.5, 0.25, 1, -1, 2, 0.125},
	}
	want := New32(4, 8)
	c.MatMulInto(want, h)
	dst := New32(4, 20)
	for i := range dst.Data {
		dst.Data[i] = -7 // poison outside the block
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			dst.Data[i*20+5+j] = 0
		}
	}
	c.MatMulColsInto(dst, 5, h, 8)
	for i := 0; i < 4; i++ {
		for j := 0; j < 20; j++ {
			switch {
			case j < 5 || j >= 13:
				if dst.At(i, j) != -7 {
					t.Fatalf("row %d col %d outside the block was written", i, j)
				}
			default:
				if dst.At(i, j) != want.At(i, j-5) {
					t.Fatalf("row %d col %d: got %g want %g", i, j, dst.At(i, j), want.At(i, j-5))
				}
			}
		}
	}

	// hcols < h.Cols: aggregate only the leading 5 columns of h, with
	// h.Cols staying the row stride.
	narrow := New32(4, 20)
	for i := range narrow.Data {
		narrow.Data[i] = -7
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			narrow.Data[i*20+5+j] = 0
		}
	}
	c.MatMulColsInto(narrow, 5, h, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 20; j++ {
			switch {
			case j < 5 || j >= 10:
				if narrow.At(i, j) != -7 {
					t.Fatalf("narrow row %d col %d outside the block was written", i, j)
				}
			default:
				if narrow.At(i, j) != want.At(i, j-5) {
					t.Fatalf("narrow row %d col %d: got %g want %g", i, j, narrow.At(i, j), want.At(i, j-5))
				}
			}
		}
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	hits := make([]int32, 500)
	ParallelRows(500, 1<<20, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("row %d covered %d times", i, h)
		}
	}
}
