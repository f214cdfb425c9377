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
	if n == 1 {
		lo = dgemvRows(dst.Data, a.Data, b.Data, lo, hi)
	}
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

// matMulSplitRange runs rows [lo, hi) of MulSplitInto at float64: each row
// accumulates a1's terms, then a2's, so k ascends over the
// concatenation.
func matMulSplitRange(dst, a1, a2, b *Matrix, lo, hi int) {
	n := b.Cols
	off := a1.Cols * n
	if n == 1 {
		dgemvRows(dst.Data, a1.Data, b.Data[:off], lo, hi)
		lo = dgemvRows(dst.Data, a2.Data, b.Data[off:], lo, hi)
	}
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		dgemmRow(drow, a1.Data[i*a1.Cols:(i+1)*a1.Cols], b.Data, n)
		dgemmRow(drow, a2.Data[i*a2.Cols:(i+1)*a2.Cols], b.Data[off:], n)
	}
}

// MatMulTransB returns m × oᵀ: MulTransBInto with a fresh transpose.
func (m *Mat[F]) MatMulTransB(o *Mat[F]) *Mat[F] {
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %dx%d × (%dx%d)ᵀ", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := newMat[F](m.Rows, o.Rows)
	MulTransBInto(out, m, o, newMat[F](o.Cols, o.Rows))
	return out
}

// MatMulTransA returns mᵀ × o: MulTransAInto with a fresh transpose.
func (m *Mat[F]) MatMulTransA(o *Mat[F]) *Mat[F] {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ × %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := newMat[F](m.Cols, o.Cols)
	MulTransAInto(out, m, o, newMat[F](m.Cols, m.Rows))
	return out
}

// MulTransAInto computes dst = aᵀ × b, accumulating into a zeroed dst,
// as MulInto over aᵀ, which it first writes into the scratch at
// (a.Cols × a.Rows). At float64 this is bitwise the historical loop
// that added a[k,i]·b[k,:] into row i for k ascending, skipping a ±0
// a[k,i]: dgemmRow adds the same terms in the same order with the same
// skip and the same round(round(mul)+acc) arithmetic.
func MulTransAInto[F Float](dst, a, b, at *Mat[F]) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulTransAInto shape mismatch (%dx%d)ᵀ × %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	TransposeInto(at, a)
	MulInto(dst, at, b, false)
}

// MulTransBInto computes dst = a × bᵀ into a zeroed dst, as MulInto
// over bᵀ, which it first writes into the scratch bt (b.Cols × b.Rows).
// At float64 this is bitwise the historical dot product, which started
// each element at +0 and added every a[i,k]·b[j,k], k ascending:
// dgemmRow adds the same terms in the same order but skips the k whose
// a[i,k] is ±0. A sum started at +0 is never −0, so adding a ±0 term
// leaves it unchanged, and the skip is exact whenever every b[j,k] is
// finite. A 0·Inf or 0·NaN term is NaN, so when b holds a non-finite
// value the product runs mulTransBAll, the dot loop with no skip.
func MulTransBInto[F Float](dst, a, b, bt *Mat[F]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulTransBInto shape mismatch %dx%d × (%dx%d)ᵀ into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if !allFinite(b.Data) {
		mulTransBAll(dst, a, b)
		return
	}
	TransposeInto(bt, b)
	MulInto(dst, a, bt, false)
}

// allFinite reports whether no element of v is ±Inf or NaN.
func allFinite[F Float](v []F) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// mulTransBAll is MulTransBInto's path for a non-finite b: every (i, j)
// is a running sum from +0 over all k, ascending, zero terms included.
func mulTransBAll[F Float](dst, a, b *Mat[F]) {
	ParallelRows(a.Rows, a.Rows*a.Cols*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var s F
				for k, av := range arow {
					s += F(av * brow[k])
				}
				dst.Data[i*b.Rows+j] = s
			}
		}
	})
}

// Transpose returns mᵀ.
func (m *Mat[F]) Transpose() *Mat[F] {
	out := newMat[F](m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// transposeBlock is the number of m's rows TransposeInto copies per
// pass: a pass reads transposeBlock rows, column by column, and writes
// each column's values into consecutive elements of one dst row, so
// both sides stay in cache.
const transposeBlock = 32

// TransposeInto writes mᵀ into dst (m.Cols × m.Rows), a block of m's
// rows at a time. dst must not alias m.
func TransposeInto[F Float](dst, m *Mat[F]) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: transposeInto wants %dx%d, got %dx%d", m.Cols, m.Rows, dst.Rows, dst.Cols))
	}
	for i0 := 0; i0 < m.Rows; i0 += transposeBlock {
		i1 := min(i0+transposeBlock, m.Rows)
		for j := 0; j < m.Cols; j++ {
			d := dst.Data[j*m.Rows+i0 : j*m.Rows+i1]
			src := m.Data[i0*m.Cols+j:]
			for ii := range d {
				d[ii] = src[ii*m.Cols]
			}
		}
	}
}

// Add returns m + o element-wise.
func (m *Mat[F]) Add(o *Mat[F]) *Mat[F] { return m.Clone().AddInPlace(o) }

// AddInPlace adds o into m and returns m. The AVX2 bulk goes through
// F's axpy kernel with α = 1 (VMULPD then VADDPD at float64, FMA at
// float32), which rounds exactly like the scalar add: the multiply by
// 1.0 is exact.
func (m *Mat[F]) AddInPlace(o *Mat[F]) *Mat[F] {
	m.assertSameShape(o, "add")
	pick[F, func(dst, src []F, alpha F)](daxpy, saxpy)(m.Data, o.Data, 1)
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
func (m *Mat[F]) Sub(o *Mat[F]) *Mat[F] { return m.Clone().SubInPlace(o) }

// SubInPlace subtracts o from m and returns m.
func (m *Mat[F]) SubInPlace(o *Mat[F]) *Mat[F] {
	m.assertSameShape(o, "sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
	return m
}

// Mul returns the element-wise (Hadamard) product m ⊙ o.
func (m *Mat[F]) Mul(o *Mat[F]) *Mat[F] { return m.Clone().MulInPlace(o) }

// MulInPlace multiplies m by o element-wise and returns m.
func (m *Mat[F]) MulInPlace(o *Mat[F]) *Mat[F] {
	m.assertSameShape(o, "mul")
	for i, v := range o.Data {
		m.Data[i] *= v
	}
	return m
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
func (m *Mat[F]) MulColVector(v *Mat[F]) *Mat[F] { return m.Clone().MulColVectorInPlace(v) }

// MulColVectorInPlace scales each row i of m by v[i] (v is Rows×1) and
// returns m.
func (m *Mat[F]) MulColVectorInPlace(v *Mat[F]) *Mat[F] {
	if v.Cols != 1 || v.Rows != m.Rows {
		panic(fmt.Sprintf("tensor: mulColVector wants %dx1, got %dx%d", m.Rows, v.Rows, v.Cols))
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
	ConcatRowsInto(out, m, o)
	return out
}

// ConcatRowsInto writes a stacked on top of b into dst, which must be
// (a.Rows+b.Rows) × a.Cols.
func ConcatRowsInto[F Float](dst, a, b *Mat[F]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows+b.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: concatRowsInto %dx%d on %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	copy(dst.Data, a.Data)
	copy(dst.Data[len(a.Data):], b.Data)
}

// SliceCols returns columns [from, to) as a new matrix.
func (m *Mat[F]) SliceCols(from, to int) *Mat[F] {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("tensor: sliceCols [%d,%d) of %d cols", from, to, m.Cols))
	}
	out := newMat[F](m.Rows, to-from)
	SliceColsInto(out, m, from)
	return out
}

// SliceColsInto copies columns [from, from+dst.Cols) of m into dst,
// which must have m's row count.
func SliceColsInto[F Float](dst, m *Mat[F], from int) {
	if dst.Rows != m.Rows || from < 0 || from+dst.Cols > m.Cols {
		panic(fmt.Sprintf("tensor: sliceColsInto [%d,%d) of %d cols into %d rows, %d given", from, from+dst.Cols, m.Cols, dst.Rows, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[from:from+dst.Cols])
	}
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
