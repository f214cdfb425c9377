package tensor

import "fmt"

// f32.go holds the float32 serving kernels: the dense and CSR products
// over Matrix32 and CSR[float32], driven by the FMA kernel set in kernels.go, and
// the float32 bodies the generic element-wise entry points dispatch to.
// They serve inference only — training and the reference scoring path
// stay float64 — so the contract here is a bounded |Δlogit| versus the
// float64 kernels (gated at enable time, see internal/gnn ValidateF32),
// never bitwise equality with them.

// Quantize returns a freshly allocated float32 copy of m. Quantization
// is plain float32(x) per element (round-to-nearest-even), so quantizing
// the same float64 matrix always yields bit-identical float32 data —
// save-time and load-time quantization agree exactly.
func Quantize(m *Matrix) *Matrix32 {
	q := New32(m.Rows, m.Cols)
	QuantizeInto(q, m)
	return q
}

// QuantizeInto writes float32(src) element-wise into dst (same shape).
func QuantizeInto(dst *Matrix32, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: quantize shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	QuantizeRow(dst.Data, src.Data)
}

// QuantizeRow writes float32(src[i]) into dst[i] for every i of src.
func QuantizeRow(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// MatMul32Into is MulInto on float32 matrices.
func MatMul32Into(dst, a, b *Matrix32) { MulInto(dst, a, b, false) }

// matMul32Rows is MulInto's float32 row range [lo, hi).
func matMul32Rows(dst, a, b *Matrix32, lo, hi int) {
	n := b.Cols
	kd := a.Cols
	switch {
	case n == 1:
		// Single-column product: per-row dots against the contiguous
		// vector b. The tiled kernels need ≥8 output columns; the generic
		// tail would run one dependent accumulator chain per row.
		for i := lo; i < hi; i++ {
			dst.Data[i] += sdot(a.Data[i*kd:(i+1)*kd], b.Data)
		}
	case n == 2:
		// Two-column product (e.g. interleaved attention src/dst
		// projections): both dots in one pass over each row of a.
		for i := lo; i < hi; i++ {
			d0, d1 := sdot2(a.Data[i*kd:(i+1)*kd], b.Data)
			dst.Data[2*i] += d0
			dst.Data[2*i+1] += d1
		}
	default:
		i := lo
		if simdEnabled {
			// Four-row register tiles: the B panel is loaded once per k
			// step and shared across four independent accumulator chains.
			for ; i+4 <= hi; i += 4 {
				sgemmRows4(dst.Data[i*n:], n, a.Data[i*kd:], kd, kd, n, b.Data, n)
			}
		}
		for ; i < hi; i++ {
			sgemmRow(dst.Data[i*n:(i+1)*n], a.Data[i*kd:(i+1)*kd], b.Data, n)
		}
	}
}

// sdot returns Σ_k a[k]·v[k] over len(a) elements, unrolled into four
// independent accumulator chains so the multiply-add latency overlaps.
func sdot(a, v []float32) float32 {
	v = v[:len(a)] // hoist the bounds check out of the loop
	var s0, s1, s2, s3 float32
	k := len(a)
	j := 0
	for ; j+4 <= k; j += 4 {
		s0 += a[j] * v[j]
		s1 += a[j+1] * v[j+1]
		s2 += a[j+2] * v[j+2]
		s3 += a[j+3] * v[j+3]
	}
	for ; j < k; j++ {
		s0 += a[j] * v[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// sdot2 returns the two dots of a against the k×2 row-major operand v
// in one pass over a, four accumulator chains across the two columns.
func sdot2(a, v []float32) (float32, float32) {
	v = v[:2*len(a)]
	var s0, s1, t0, t1 float32
	k := len(a)
	j := 0
	for ; j+2 <= k; j += 2 {
		s0 += a[j] * v[2*j]
		t0 += a[j] * v[2*j+1]
		s1 += a[j+1] * v[2*j+2]
		t1 += a[j+1] * v[2*j+3]
	}
	if j < k {
		s0 += a[j] * v[2*j]
		t0 += a[j] * v[2*j+1]
	}
	return s0 + s1, t0 + t1
}

// matMul32SplitRows is MulSplitInto's float32 row range [lo, hi).
func matMul32SplitRows(dst, a1, a2, b *Matrix32, lo, hi int) {
	n := b.Cols
	off := a1.Cols * n
	if n == 1 {
		for i := lo; i < hi; i++ {
			dst.Data[i] += sdot(a1.Data[i*a1.Cols:(i+1)*a1.Cols], b.Data) +
				sdot(a2.Data[i*a2.Cols:(i+1)*a2.Cols], b.Data[off:])
		}
		return
	}
	i := lo
	if simdEnabled {
		for ; i+4 <= hi; i += 4 {
			sgemmRows4(dst.Data[i*n:], n, a1.Data[i*a1.Cols:], a1.Cols, a1.Cols, n, b.Data, n)
			sgemmRows4(dst.Data[i*n:], n, a2.Data[i*a2.Cols:], a2.Cols, a2.Cols, n, b.Data[off:], n)
		}
	}
	for ; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		sgemmRow(drow, a1.Data[i*a1.Cols:(i+1)*a1.Cols], b.Data, n)
		sgemmRow(drow, a2.Data[i*a2.Cols:(i+1)*a2.Cols], b.Data[off:], n)
	}
}

// Scale32 computes v[j] *= s (8-wide on AVX2, scalar tail).
func Scale32(v []float32, s float32) {
	if simdEnabled && len(v) >= 8 {
		k := len(v) &^ 7
		sscal32AVX2(v[:k], s)
		v = v[k:]
	}
	for j := range v {
		v[j] *= s
	}
}

// Axpy32 computes dst[j] += s*src[j] (FMA 8-wide on AVX2, scalar tail;
// the vector lanes fuse the multiply-add, so results may differ from
// the scalar loop in the final ulp).
func Axpy32(dst, src []float32, s float32) {
	saxpy(dst, src, s)
}

// relu32 clamps negative elements to 0 in place (8-wide on AVX2; the
// vector lanes also map -0 to +0, which nothing downstream can observe).
func relu32(d []float32) {
	d = vec8(d, relu32AVX2)
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

// softmaxRows32 computes row-wise softmax in place with the fast
// float32 exp (same max-subtraction scheme as SoftmaxRowsInto). The
// exponentials run as one vectorized pass over the whole matrix between
// the per-row shift and normalize passes.
func softmaxRows32(m *Matrix32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		mx := negInf32
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		for j := range row {
			row[j] -= mx
		}
	}
	Exp32InPlace(m.Data)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var sum float32
		for _, v := range row {
			sum += v
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}
