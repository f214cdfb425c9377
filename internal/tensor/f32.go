package tensor

import (
	"fmt"
	"sync"
)

// f32.go is the float32 serving backend: a Matrix32/CSR32 mirror of the
// float64 types driven by the FMA kernel set in kernels.go. It exists
// only for opt-in inference — training and the reference scoring path
// stay float64 — so the contract here is a bounded |Δlogit| versus the
// float64 kernels (gated at enable time, see internal/gnn ValidateF32),
// never bitwise equality.

// Matrix32 is a dense row-major matrix of float32 values.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zero-initialized float32 matrix of the given shape.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

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
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowView returns a 1×Cols matrix sharing row i's storage with m.
func (m *Matrix32) RowView(i int) *Matrix32 {
	return &Matrix32{Rows: 1, Cols: m.Cols, Data: m.Row(i)}
}

// RowsView returns a (hi−lo)×Cols matrix sharing rows [lo, hi) of m.
func (m *Matrix32) RowsView(lo, hi int) *Matrix32 {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: rowsView [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix32{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Zero resets every element to 0 in place.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix32) Clone() *Matrix32 {
	c := New32(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatMul32Into computes dst = a × b, accumulating into a zeroed dst.
// dst must not alias a or b.
func MatMul32Into(dst, a, b *Matrix32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul32Into shape mismatch")
	}
	n := b.Cols
	kd := a.Cols
	if n == 1 {
		// Single-column product: per-row dots against the contiguous
		// vector b. The tiled kernels need ≥8 output columns; the generic
		// tail would run one dependent accumulator chain per row.
		ParallelRows(a.Rows, a.Rows*kd, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst.Data[i] += sdot(a.Data[i*kd:(i+1)*kd], b.Data)
			}
		})
		return
	}
	if n == 2 {
		// Two-column product (e.g. interleaved attention src/dst
		// projections): both dots in one pass over each row of a.
		ParallelRows(a.Rows, a.Rows*kd*2, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				d0, d1 := sdot2(a.Data[i*kd:(i+1)*kd], b.Data)
				dst.Data[2*i] += d0
				dst.Data[2*i+1] += d1
			}
		})
		return
	}
	ParallelRows(a.Rows, a.Rows*kd*n, func(lo, hi int) {
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
	})
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

// MatMul32SplitInto computes [a1 | a2] × b into a zeroed dst without
// materializing the concatenation (float32 mirror of MatMulSplitInto).
func MatMul32SplitInto(dst, a1, a2, b *Matrix32) {
	if a1.Rows != a2.Rows || a1.Cols+a2.Cols != b.Rows || dst.Rows != a1.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul32SplitInto shape mismatch")
	}
	n := b.Cols
	off := a1.Cols * n
	if n == 1 {
		ParallelRows(a1.Rows, a1.Rows*(a1.Cols+a2.Cols), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst.Data[i] += sdot(a1.Data[i*a1.Cols:(i+1)*a1.Cols], b.Data) +
					sdot(a2.Data[i*a2.Cols:(i+1)*a2.Cols], b.Data[off:])
			}
		})
		return
	}
	ParallelRows(a1.Rows, a1.Rows*(a1.Cols+a2.Cols)*n, func(lo, hi int) {
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
	})
}

// AddInPlace adds o into m and returns m. The AVX2 bulk goes through
// the FMA axpy kernel with α = 1, which rounds exactly like the scalar
// add (the multiply by 1.0 is exact).
func (m *Matrix32) AddInPlace(o *Matrix32) *Matrix32 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: add32 shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	saxpy(m.Data, o.Data, 1)
	return m
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

// AddRowVectorInPlace adds the 1×Cols vector v to each row of m.
func (m *Matrix32) AddRowVectorInPlace(v *Matrix32) *Matrix32 {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRowVector32 wants 1x%d, got %dx%d", m.Cols, v.Rows, v.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v.Data {
			row[j] += b
		}
	}
	return m
}

// MulColVectorInPlace scales each row i of m by v[i] (v is Rows×1).
func (m *Matrix32) MulColVectorInPlace(v *Matrix32) *Matrix32 {
	if v.Cols != 1 || v.Rows != m.Rows {
		panic(fmt.Sprintf("tensor: mulColVector32 wants %dx1, got %dx%d", m.Rows, v.Rows, v.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		s := v.Data[i]
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
	return m
}

// ConcatCols32Into writes [a ; b] stacked horizontally into dst.
func ConcatCols32Into(dst, a, b *Matrix32) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: concatCols32 row mismatch %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: concatCols32Into wants %dx%d, got %dx%d", a.Rows, a.Cols+b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		copy(dst.Data[i*dst.Cols:], a.Row(i))
		copy(dst.Data[i*dst.Cols+a.Cols:], b.Row(i))
	}
}

// SelectRows32Into gathers the given row indices of m into dst.
func SelectRows32Into(dst, m *Matrix32, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: selectRows32Into wants %dx%d, got %dx%d", len(idx), m.Cols, dst.Rows, dst.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// ReLU32InPlace clamps negative elements to 0 in place and returns m
// (8-wide on AVX2; the vector lanes also map -0 to +0, which nothing
// downstream can observe).
func ReLU32InPlace(m *Matrix32) *Matrix32 {
	d := m.Data
	if simdEnabled && len(d) >= 8 {
		k := len(d) &^ 7
		relu32AVX2(d[:k])
		d = d[k:]
	}
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return m
}

// LeakyReLU32InPlace applies x → x if x > 0 else slope·x in place.
func LeakyReLU32InPlace(m *Matrix32, slope float32) *Matrix32 {
	for i, v := range m.Data {
		if v <= 0 {
			m.Data[i] = slope * v
		}
	}
	return m
}

// Tanh32InPlace applies the fast float32 tanh element-wise in place
// (8-wide on AVX2).
func Tanh32InPlace(m *Matrix32) *Matrix32 {
	tanh32Slice(m.Data)
	return m
}

// Sigmoid32InPlace applies the fast float32 sigmoid element-wise in
// place (8-wide on AVX2).
func Sigmoid32InPlace(m *Matrix32) *Matrix32 {
	sigmoid32Slice(m.Data)
	return m
}

// SoftmaxRows32InPlace computes row-wise softmax in place (same
// max-subtraction scheme as SoftmaxRowsInto) and returns m. The
// exponentials run as one vectorized pass over the whole matrix between
// the per-row shift and normalize passes.
func SoftmaxRows32InPlace(m *Matrix32) *Matrix32 {
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
	return m
}

// CSR32 is a float32 compressed-sparse-row adjacency operand. RowPtr may
// alias the source CSR's (it is read-only in every kernel); ColIdx is
// int32 so the gather kernel indexes it directly.
type CSR32 struct {
	NRows, NCols int
	RowPtr       []int
	ColIdx       []int32
	Weights      []float32
}

// MatMulInto computes dst = c × h, accumulating into a zeroed dst.
func (c *CSR32) MatMulInto(dst, h *Matrix32) {
	if c.NCols != h.Rows || dst.Rows != c.NRows || dst.Cols != h.Cols {
		panic("tensor: CSR32 MatMulInto shape mismatch")
	}
	n := h.Cols
	nnz := 0
	if len(c.RowPtr) > 0 {
		nnz = c.RowPtr[len(c.RowPtr)-1]
	}
	ParallelRows(c.NRows, nnz*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, e := c.RowPtr[i], c.RowPtr[i+1]
			csrRow(dst.Data[i*n:(i+1)*n], c.ColIdx[s:e], c.Weights[s:e], h.Data, n)
		}
	})
}

// MatMulColsInto accumulates c × h[:, :hcols] into the column block
// [off, off+hcols) of dst, so multi-head attention can aggregate each
// head directly into its slot of the concatenated layer output instead
// of materializing per-head matrices and copying them together. hcols
// may be smaller than h.Cols, letting callers aggregate a leading
// column block of a wider scratch matrix (h.Cols stays the row stride).
func (c *CSR32) MatMulColsInto(dst *Matrix32, off int, h *Matrix32, hcols int) {
	if c.NCols != h.Rows || dst.Rows != c.NRows || off < 0 || hcols > h.Cols || off+hcols > dst.Cols {
		panic("tensor: CSR32 MatMulColsInto shape mismatch")
	}
	n := hcols
	ld := dst.Cols
	nnz := 0
	if len(c.RowPtr) > 0 {
		nnz = c.RowPtr[len(c.RowPtr)-1]
	}
	ParallelRows(c.NRows, nnz*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, e := c.RowPtr[i], c.RowPtr[i+1]
			csrRow(dst.Data[i*ld+off:i*ld+off+n], c.ColIdx[s:e], c.Weights[s:e], h.Data, h.Cols)
		}
	})
}

// CSRRow32Into accumulates Σ_p w[p]·h[cols[p]] into the zeroed drow:
// the row kernel of CSR32.MatMulInto with the columns supplied by the
// caller, so a cone forward can point them at a gathered block of rows.
func CSRRow32Into(drow []float32, cols []int32, w []float32, h *Matrix32) {
	csrRow(drow, cols, w, h.Data, h.Cols)
}

// ---- float32 scratch pools (mirrors of the float64 pools) ----

var matrix32Headers = sync.Pool{New: func() any { return new(Matrix32) }}

// GetMatrix32 returns a zeroed rows×cols float32 matrix backed by the
// float32 capacity-class pool. Pair with PutMatrix32.
func GetMatrix32(rows, cols int) *Matrix32 {
	m := matrix32Headers.Get().(*Matrix32)
	m.Rows, m.Cols, m.Data = rows, cols, GetFloats32(rows*cols)
	return m
}

// PutMatrix32 returns m and its backing to the pools; see PutMatrix.
func PutMatrix32(m *Matrix32) {
	if m == nil {
		return
	}
	PutFloats32(m.Data)
	m.Data = nil
	matrix32Headers.Put(m)
}

// Reshape is the float32 mirror of Matrix.Reshape.
func (m *Matrix32) Reshape(rows, cols int) *Matrix32 {
	n := rows * cols
	if n > cap(m.Data) {
		PutFloats32(m.Data)
		m.Rows, m.Cols, m.Data = rows, cols, GetFloats32(n)
		return m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	clear(m.Data)
	return m
}

var (
	int32Pools   [numSliceClasses]sync.Pool
	float32Pools [numSliceClasses]sync.Pool
)

// GetInts32 returns a zeroed length-n int32 slice from the
// capacity-class pool. Pair with PutInts32.
func GetInts32(n int) []int32 {
	if n == 0 {
		return nil
	}
	c := sliceClass(n)
	if c < 0 {
		return make([]int32, n)
	}
	if s, _ := int32Pools[c].Get().([]int32); s != nil {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	backingAllocs.Add(1)
	return make([]int32, n, 1<<c)
}

// PutInts32 returns s to its capacity-class pool; see PutInts.
func PutInts32(s []int32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if cls := sliceClass(c); cls >= 0 {
		int32Pools[cls].Put(s[:0]) //nolint:staticcheck // slice header boxing is accepted
	}
}

// GetFloats32 returns a zeroed length-n float32 slice from the
// capacity-class pool. Pair with PutFloats32.
func GetFloats32(n int) []float32 {
	if n == 0 {
		return nil
	}
	c := sliceClass(n)
	if c < 0 {
		return make([]float32, n)
	}
	if s, _ := float32Pools[c].Get().([]float32); s != nil {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	backingAllocs.Add(1)
	return make([]float32, n, 1<<c)
}

// PutFloats32 returns s to its capacity-class pool; see PutInts.
func PutFloats32(s []float32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	if cls := sliceClass(c); cls >= 0 {
		float32Pools[cls].Put(s[:0]) //nolint:staticcheck // slice header boxing is accepted
	}
}
