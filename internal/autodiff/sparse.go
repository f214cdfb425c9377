package autodiff

import "turbo/internal/tensor"

// CSR is a fixed (non-trainable) sparse row-compressed matrix used for
// neighborhood aggregation in GNN layers: out = A × H where A is N×M.
// RowPtr has length N+1; ColIdx/Weights hold the entries of each row.
type CSR struct {
	NRows, NCols int
	RowPtr       []int
	ColIdx       []int
	Weights      []float64
}

// NewCSR builds a CSR matrix from per-row (column, weight) entries.
func NewCSR(nRows, nCols int, rows [][]int, weights [][]float64) *CSR {
	c := &CSR{NRows: nRows, NCols: nCols, RowPtr: make([]int, nRows+1)}
	for i := 0; i < nRows; i++ {
		c.RowPtr[i+1] = c.RowPtr[i] + len(rows[i])
		c.ColIdx = append(c.ColIdx, rows[i]...)
		c.Weights = append(c.Weights, weights[i]...)
	}
	return c
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// MatMul computes A × H densely into a fresh matrix.
func (c *CSR) MatMul(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(c.NRows, h.Cols)
	c.MatMulInto(out, h)
	return out
}

// MatMulInto computes A × H, accumulating into a zeroed dst of shape
// NRows × h.Cols. dst must not alias h. Shared with the tape-free
// inference path so both paths run the identical kernel
// (tensor.CSRMatMulInto: same row kernel, same accumulation order).
func (c *CSR) MatMulInto(dst, h *tensor.Matrix) {
	if h.Rows != c.NCols || dst.Rows != c.NRows || dst.Cols != h.Cols {
		panic("autodiff: CSR matmul shape mismatch")
	}
	tensor.CSRMatMulInto(dst, c.RowPtr, c.ColIdx, c.Weights, h)
}

// MatMulTrans computes Aᵀ × G, used for the backward pass.
func (c *CSR) MatMulTrans(g *tensor.Matrix) *tensor.Matrix {
	if g.Rows != c.NRows {
		panic("autodiff: CSR matmulTrans shape mismatch")
	}
	out := tensor.New(c.NCols, g.Cols)
	c.addMatMulTrans(out, g)
	return out
}

func (c *CSR) addMatMulTrans(dst, g *tensor.Matrix) {
	for i := 0; i < c.NRows; i++ {
		src := g.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			w := c.Weights[p]
			row := dst.Row(c.ColIdx[p])
			for j, v := range src {
				row[j] += w * v
			}
		}
	}
}

// Aggregate records out = A × h on the tape, propagating gradients
// through h but treating the adjacency weights as constants. This is the
// neighborhood-aggregation primitive all GNN layers build on.
func (t *Tape) Aggregate(a *CSR, h *Node) *Node {
	v := a.MatMul(h.Value)
	var out *Node
	out = t.op(v, func() {
		if !h.requiresGrad {
			return
		}
		a.addMatMulTrans(h.ensureGrad(), out.Grad)
	}, h)
	return out
}
