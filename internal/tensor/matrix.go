// Package tensor provides dense matrices and the numeric kernels used by
// the autodiff engine and every model in the repository. One generic
// Mat[F] serves both precisions: Matrix (float64) carries training and
// the bitwise reference forwards, Matrix32 (float32) the quantized
// serving forward. Methods whose arithmetic is the same at both
// precisions are written once; the kernels whose arithmetic differs —
// the dense and CSR row kernels, tanh/exp/sigmoid, the FMA axpy — stay
// typed, and a generic entry point picks one with a single type switch
// per call, never per row or element.
//
// Matrices are row-major. All operations either allocate a fresh result or
// write into the receiver in place; in-place variants are suffixed with
// "Into" or documented as mutating. The package is deliberately free of
// external dependencies so the whole training stack runs on the standard
// library alone.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Float is the element type of a Mat: float64 or float32, nothing else,
// so a type switch over *Matrix and *Matrix32 is exhaustive.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix of F values.
type Mat[F Float] struct {
	Rows, Cols int
	Data       []F
}

// Matrix is a dense row-major matrix of float64 values.
type Matrix = Mat[float64]

// Matrix32 is a dense row-major matrix of float32 values.
type Matrix32 = Mat[float32]

// newMat returns a zero-initialized matrix of the given shape.
func newMat[F Float](rows, cols int) *Mat[F] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Mat[F]{Rows: rows, Cols: cols, Data: make([]F, rows*cols)}
}

// New returns a zero-initialized float64 matrix of the given shape.
func New(rows, cols int) *Matrix { return newMat[float64](rows, cols) }

// New32 returns a zero-initialized float32 matrix of the given shape.
func New32(rows, cols int) *Matrix32 { return newMat[float32](rows, cols) }

// FromSlice wraps data (length rows*cols) in a Matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d (%d != %d)", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Mat[F]) At(i, j int) F { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat[F]) Set(i, j int, v F) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Mat[F]) Row(i int) []F { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat[F]) Clone() *Mat[F] {
	c := newMat[F](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to 0 in place.
func (m *Mat[F]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Mat[F]) Fill(v F) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Mat[F]) SameShape(o *Mat[F]) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Mat[F]) assertSameShape(o *Mat[F], op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// MatMul returns m × o.
func (m *Mat[F]) MatMul(o *Mat[F]) *Mat[F] {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := newMat[F](m.Rows, o.Cols)
	MulInto(out, m, o, false)
	return out
}

// MulInto computes dst = a × b, accumulating into a zeroed dst, with
// F's row kernel: matMulRange at float64, matMul32Rows at float32. dst
// must not alias a or b. Large products are split across the worker pool
// by row ranges, which keeps writes disjoint, unless serial keeps every
// row on the calling goroutine (one shard of a sweep); below the
// parallel threshold the call runs inline and allocates nothing.
func MulInto[F Float](dst, a, b *Mat[F], serial bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MulInto shape mismatch")
	}
	rows := pick[F, func(dst, a, b *Mat[F], lo, hi int)](matMulRange, matMul32Rows)
	if serial || a.Rows*a.Cols*b.Cols < parallelThreshold || a.Rows <= 1 {
		rows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { rows(dst, a, b, lo, hi) })
}

// MulSplitInto is MulInto on the column concatenation [a1 | a2],
// without materializing it: b's first a1.Cols rows pair with a1, the
// rest with a2. The accumulation order (and the parallel row partition)
// is exactly that of MulInto on the concatenated matrix, so results are
// bitwise identical. dst must be zeroed and must not alias a1, a2 or b.
func MulSplitInto[F Float](dst, a1, a2, b *Mat[F], serial bool) {
	if a1.Rows != a2.Rows || a1.Cols+a2.Cols != b.Rows || dst.Rows != a1.Rows || dst.Cols != b.Cols {
		panic("tensor: MulSplitInto shape mismatch")
	}
	rows := pick[F, func(dst, a1, a2, b *Mat[F], lo, hi int)](matMulSplitRange, matMul32SplitRows)
	if serial || a1.Rows*b.Rows*b.Cols < parallelThreshold || a1.Rows <= 1 {
		rows(dst, a1, a2, b, 0, a1.Rows)
		return
	}
	parallelRows(a1.Rows, func(lo, hi int) { rows(dst, a1, a2, b, lo, hi) })
}

// MatMulInto is MulInto on float64 matrices, never serial.
func MatMulInto(dst, a, b *Matrix) { MulInto(dst, a, b, false) }

// MatMulSplitInto is MulSplitInto on float64 matrices, never serial.
func MatMulSplitInto(dst, a1, a2, b *Matrix) { MulSplitInto(dst, a1, a2, b, false) }

// matMulRange computes rows [lo, hi) of dst = a×b, one dgemmRow per
// row. The row kernel streams all of B per output row. No model's
// weight exceeds kd·n = 16,384 (GraphSAGE's 256×64 concat layer at the
// paper hyper-parameters, 128 KiB), so B stays cache-resident.
//
// Bitwise contract: for every output element (i, j) the contributions
// a[i,k]*b[k,j] are added in strictly ascending k with the same
// skip-zero test and round(round(mul)+acc) arithmetic as the historical
// scalar triple loop, SIMD or not (dgemmRow never uses FMA). Tape,
// infer, and sweep all funnel through this kernel, so their logits
// remain bitwise-equal to each other.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kd := a.Cols
	for i := lo; i < hi; i++ {
		dgemmRow(dst.Data[i*n:(i+1)*n], a.Data[i*kd:(i+1)*kd], b.Data, n)
	}
}

// RowView returns a 1×Cols matrix sharing row i's storage with m.
// Mutating the view mutates m.
func (m *Mat[F]) RowView(i int) *Mat[F] {
	return &Mat[F]{Rows: 1, Cols: m.Cols, Data: m.Row(i)}
}

// RowsView returns a (hi−lo)×Cols matrix sharing rows [lo, hi) of m's
// storage. Mutating the view mutates m.
func (m *Mat[F]) RowsView(lo, hi int) *Mat[F] {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: rowsView [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Mat[F]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// MatMulRangeInto computes rows [lo, hi) of dst = a × b sequentially,
// accumulating into zeroed dst rows. It is the caller-partitioned
// variant of MatMulInto: per-row arithmetic (skip-zero test, k-major
// accumulation order) is identical, so splitting [0, Rows) across any
// contiguous partition yields results bitwise equal to one MatMulInto
// call. dst rows outside [lo, hi) are untouched.
func MatMulRangeInto(dst, a, b *Matrix, lo, hi int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulRangeInto shape mismatch")
	}
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: MatMulRangeInto range [%d,%d) of %d rows", lo, hi, a.Rows))
	}
	matMulRange(dst, a, b, lo, hi)
}

// matMulSplitRange runs rows [lo, hi) of MatMulSplitInto: each row
// accumulates a1's terms, then a2's, so k ascends over the
// concatenation.
func matMulSplitRange(dst, a1, a2, b *Matrix, lo, hi int) {
	n := b.Cols
	off := a1.Cols * n
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		dgemmRow(drow, a1.Data[i*a1.Cols:(i+1)*a1.Cols], b.Data, n)
		dgemmRow(drow, a2.Data[i*a2.Cols:(i+1)*a2.Cols], b.Data[off:], n)
	}
}

// CSRMatMulInto computes dst = A × h for the sparse A whose row i holds
// the entries (cols[p], w[p]) for p in [rowPtr[i], rowPtr[i+1]),
// accumulating into a zeroed dst of len(rowPtr)−1 rows and h.Cols
// columns. Each row runs CSRRowInto's kernel, so any row partition —
// this call's pool split, or a caller's own row loop — is bitwise the
// same product. dst must not alias h. Below the parallel threshold it
// runs inline and allocates nothing.
func CSRMatMulInto(dst *Matrix, rowPtr, cols []int, w []float64, h *Matrix) {
	rows := len(rowPtr) - 1
	if dst.Rows != rows || dst.Cols != h.Cols || len(w) < len(cols) || len(h.Data) < h.Rows*h.Cols {
		panic("tensor: CSRMatMulInto shape mismatch")
	}
	if rowPtr[rows]*h.Cols < parallelThreshold || rows <= 1 {
		csrRange(dst, rowPtr, cols, w, h, 0, rows)
		return
	}
	parallelRows(rows, func(lo, hi int) { csrRange(dst, rowPtr, cols, w, h, lo, hi) })
}

func csrRange(dst *Matrix, rowPtr, cols []int, w []float64, h *Matrix, lo, hi int) {
	n := h.Cols
	for i := lo; i < hi; i++ {
		s, e := rowPtr[i], rowPtr[i+1]
		dcsrRow(dst.Data[i*n:(i+1)*n], cols[s:e], nil, w[s:e], h)
	}
}

// CSRRowInto accumulates Σ_p w[p]·h[r(p)] into the zeroed drow, p
// ascending, where r(p) is cols[p], or pos[cols[p]] when pos is non-nil
// (a cone forward's gathered block of rows). It is the row kernel of
// CSRMatMulInto: same arithmetic, no zero test. A gathered row outside
// h — a cols[p] outside pos, or a -1 that pos keeps for a node outside
// the cone — panics.
func CSRRowInto(drow []float64, cols []int, w []float64, h *Matrix, pos []int) {
	if len(drow) != h.Cols || len(w) < len(cols) || len(h.Data) < h.Rows*h.Cols {
		panic("tensor: CSRRowInto shape mismatch")
	}
	dcsrRow(drow, cols, pos, w, h)
}

// MatMulTransB returns m × oᵀ.
func (m *Mat[F]) MatMulTransB(o *Mat[F]) *Mat[F] {
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %dx%d × (%dx%d)ᵀ", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := newMat[F](m.Rows, o.Rows)
	// Dot-product form: the sequential k-sum is part of the training
	// numerics (backward passes), so it is dispatched to the pool but
	// never re-associated or vectorized.
	ParallelRows(m.Rows, m.Rows*m.Cols*o.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := m.Row(i)
			for j := 0; j < o.Rows; j++ {
				brow := o.Row(j)
				var s F
				for k, av := range arow {
					s += av * brow[k]
				}
				out.Data[i*o.Rows+j] = s
			}
		}
	})
	return out
}

// MatMulTransA returns mᵀ × o.
func (m *Mat[F]) MatMulTransA(o *Mat[F]) *Mat[F] {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ × %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := newMat[F](m.Cols, o.Cols)
	axpy := pick[F, func(dst, src []F, alpha F)](daxpy, saxpy)
	// One kernel for both the serial and pooled paths (the old serial
	// copy of this loop nest predated ParallelRows and skipped the
	// parallel dispatch entirely). Output rows (columns of m) are
	// disjoint per range, and for a fixed (i, j) the k contributions
	// arrive in ascending order on either path, so the partition does
	// not affect results.
	ParallelRows(m.Cols, m.Rows*m.Cols*o.Cols, func(lo, hi int) {
		for k := 0; k < m.Rows; k++ {
			arow := m.Row(k)[lo:hi]
			brow := o.Row(k)
			for di, av := range arow {
				if av == 0 {
					continue
				}
				i := lo + di
				axpy(out.Data[i*o.Cols:(i+1)*o.Cols], brow, av)
			}
		}
	})
	return out
}

// Transpose returns mᵀ.
func (m *Mat[F]) Transpose() *Mat[F] {
	out := newMat[F](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns m + o element-wise.
func (m *Mat[F]) Add(o *Mat[F]) *Mat[F] { return m.Clone().AddInPlace(o) }

// AddInPlace adds o into m and returns m. At float32 the AVX2 bulk goes
// through the FMA axpy kernel with α = 1, which rounds exactly like the
// scalar add (the multiply by 1.0 is exact).
func (m *Mat[F]) AddInPlace(o *Mat[F]) *Mat[F] {
	m.assertSameShape(o, "add")
	if m32, ok := any(m).(*Matrix32); ok {
		saxpy(m32.Data, any(o).(*Matrix32).Data, 1)
		return m
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
	return m
}

// AddScaledInPlace adds s*o into m and returns m.
func (m *Mat[F]) AddScaledInPlace(o *Mat[F], s F) *Mat[F] {
	m.assertSameShape(o, "addScaled")
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
	return m
}

// Sub returns m − o element-wise.
func (m *Mat[F]) Sub(o *Mat[F]) *Mat[F] {
	m.assertSameShape(o, "sub")
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] -= v
	}
	return out
}

// Mul returns the element-wise (Hadamard) product m ⊙ o.
func (m *Mat[F]) Mul(o *Mat[F]) *Mat[F] {
	m.assertSameShape(o, "mul")
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] *= v
	}
	return out
}

// Scale returns s·m.
func (m *Mat[F]) Scale(s F) *Mat[F] { return m.Clone().ScaleInPlace(s) }

// ScaleInPlace multiplies every element by s and returns m.
func (m *Mat[F]) ScaleInPlace(s F) *Mat[F] {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVector returns m with the 1×Cols vector v added to each row.
func (m *Mat[F]) AddRowVector(v *Mat[F]) *Mat[F] { return m.Clone().AddRowVectorInPlace(v) }

// AddRowVectorInPlace adds the 1×Cols vector v to each row of m and
// returns m.
func (m *Mat[F]) AddRowVectorInPlace(v *Mat[F]) *Mat[F] {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRowVector wants 1x%d, got %dx%d", m.Cols, v.Rows, v.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v.Data {
			row[j] += b
		}
	}
	return m
}

// MulColVector returns m with each row i scaled by v[i] (v is Rows×1).
func (m *Mat[F]) MulColVector(v *Mat[F]) *Mat[F] {
	if v.Cols != 1 || v.Rows != m.Rows {
		panic(fmt.Sprintf("tensor: mulColVector wants %dx1, got %dx%d", m.Rows, v.Rows, v.Cols))
	}
	out := m.Clone()
	for i := 0; i < m.Rows; i++ {
		s := v.Data[i]
		row := out.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
	return out
}

// ConcatCols returns [m ; o] stacked horizontally (same row count).
func (m *Mat[F]) ConcatCols(o *Mat[F]) *Mat[F] {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: concatCols row mismatch %d vs %d", m.Rows, o.Rows))
	}
	out := newMat[F](m.Rows, m.Cols+o.Cols)
	ConcatColsInto(out, m, o)
	return out
}

// ConcatColsInto writes [a ; b] stacked horizontally into dst, which
// must be a.Rows × (a.Cols+b.Cols) and must not alias a or b.
func ConcatColsInto[F Float](dst, a, b *Mat[F]) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: concatCols row mismatch %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: concatColsInto wants %dx%d, got %dx%d", a.Rows, a.Cols+b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		copy(dst.Data[i*dst.Cols:], a.Row(i))
		copy(dst.Data[i*dst.Cols+a.Cols:], b.Row(i))
	}
}

// ConcatRows returns m stacked on top of o (same column count).
func (m *Mat[F]) ConcatRows(o *Mat[F]) *Mat[F] {
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: concatRows col mismatch %d vs %d", m.Cols, o.Cols))
	}
	out := newMat[F](m.Rows+o.Rows, m.Cols)
	copy(out.Data, m.Data)
	copy(out.Data[len(m.Data):], o.Data)
	return out
}

// SliceCols returns columns [from, to) as a new matrix.
func (m *Mat[F]) SliceCols(from, to int) *Mat[F] {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("tensor: sliceCols [%d,%d) of %d cols", from, to, m.Cols))
	}
	out := newMat[F](m.Rows, to-from)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
	return out
}

// SelectRows gathers the given row indices into a new matrix.
func (m *Mat[F]) SelectRows(idx []int) *Mat[F] {
	out := newMat[F](len(idx), m.Cols)
	SelectRowsInto(out, m, idx)
	return out
}

// SelectRowsInto gathers the given row indices of m into dst, which
// must be len(idx) × m.Cols and must not alias m.
func SelectRowsInto[F Float](dst, m *Mat[F], idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: selectRowsInto wants %dx%d, got %dx%d", len(idx), m.Cols, dst.Rows, dst.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// Sum returns the sum of all elements.
func (m *Mat[F]) Sum() F {
	var s F
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty).
func (m *Mat[F]) Mean() F {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / F(len(m.Data))
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Mat[F]) MaxAbs() F {
	var mx F
	for _, v := range m.Data {
		if a := F(math.Abs(float64(v))); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(Σ mᵢⱼ²).
func (m *Mat[F]) FrobeniusNorm() F {
	var s F
	for _, v := range m.Data {
		s += v * v
	}
	return F(math.Sqrt(float64(s)))
}

// Apply returns a new matrix with f applied element-wise.
func (m *Mat[F]) Apply(f func(F) F) *Mat[F] {
	out := newMat[F](m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Equal reports element-wise equality within tolerance eps.
func (m *Mat[F]) Equal(o *Mat[F], eps F) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if F(math.Abs(float64(v-o.Data[i]))) > eps {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Mat[F]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d [", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}
