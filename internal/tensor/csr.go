package tensor

// CSR is a compressed-sparse-row matrix of F weights, the aggregation
// operand out = A × H: row i holds the entries (ColIdx[p], Weights[p])
// for p in [RowPtr[i], RowPtr[i+1]). The kernels only read it, so a
// float32 mirror of a float64 matrix shares its RowPtr and ColIdx and
// owns only its Weights.
type CSR[F Float] struct {
	NRows, NCols int
	RowPtr       []int
	ColIdx       []int32
	Weights      []F
}

// NNZ returns the number of stored entries.
func (c *CSR[F]) NNZ() int { return len(c.ColIdx) }

// MatMulInto computes dst = c × h, accumulating into a zeroed dst of
// NRows × h.Cols. Each row runs its precision's row kernel (CSRRowInto,
// CSRRow32Into), so any row partition — this call's pool split, or a
// caller's own row loop — is bitwise the same product. dst must not
// alias h. Below the parallel threshold it runs inline and allocates
// nothing.
func (c *CSR[F]) MatMulInto(dst, h *Mat[F]) {
	if c.NCols != h.Rows || dst.Rows != c.NRows || dst.Cols != h.Cols || len(c.Weights) < len(c.ColIdx) {
		panic("tensor: CSR MatMulInto shape mismatch")
	}
	rows := pick[F, func(dst *Mat[F], c *CSR[F], h *Mat[F], lo, hi int)](csrRange, csr32Range)
	if c.RowPtr[c.NRows]*h.Cols < parallelThreshold || c.NRows <= 1 {
		rows(dst, c, h, 0, c.NRows)
		return
	}
	parallelRows(c.NRows, func(lo, hi int) { rows(dst, c, h, lo, hi) })
}

func csrRange(dst *Matrix, c *CSR[float64], h *Matrix, lo, hi int) {
	n := h.Cols
	for i := lo; i < hi; i++ {
		s, e := c.RowPtr[i], c.RowPtr[i+1]
		dcsrRow(dst.Data[i*n:(i+1)*n], c.ColIdx[s:e], nil, c.Weights[s:e], h)
	}
}

func csr32Range(dst *Matrix32, c *CSR[float32], h *Matrix32, lo, hi int) {
	n := h.Cols
	for i := lo; i < hi; i++ {
		s, e := c.RowPtr[i], c.RowPtr[i+1]
		csrRow(dst.Data[i*n:(i+1)*n], c.ColIdx[s:e], c.Weights[s:e], h.Data, n)
	}
}

// CSRRowInto accumulates Σ_p w[p]·h[r(p)] into the zeroed drow, p
// ascending, where r(p) is cols[p], or pos[cols[p]] when pos is non-nil
// (a cone forward's gathered block of rows). It is the float64 row
// kernel of CSR.MatMulInto: same arithmetic, no zero test. A gathered
// row outside h — a cols[p] outside pos, or a -1 that pos keeps for a
// node outside the cone — panics.
func CSRRowInto(drow []float64, cols []int32, w []float64, h *Matrix, pos []int) {
	if len(drow) != h.Cols || len(w) < len(cols) || len(h.Data) < h.Rows*h.Cols {
		panic("tensor: CSRRowInto shape mismatch")
	}
	dcsrRow(drow, cols, pos, w, h)
}

// CSRRow32Into accumulates Σ_p w[p]·h[cols[p], off:off+len(drow)] into
// the zeroed drow: the float32 row kernel of CSR.MatMulInto with the
// columns supplied by the caller, so a cone forward can point them at a
// gathered block of rows and multi-head attention at one head's column
// block.
func CSRRow32Into(drow []float32, cols []int32, w []float32, h *Matrix32, off int) {
	if off < 0 || off+len(drow) > h.Cols {
		panic("tensor: CSRRow32Into column block out of range")
	}
	csrRow(drow, cols, w, h.Data[off:], h.Cols)
}
