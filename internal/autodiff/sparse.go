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
// inference path so both paths run the identical kernel (same parallel
// row partition, same accumulation order).
func (c *CSR) MatMulInto(dst, h *tensor.Matrix) {
	if h.Rows != c.NCols || dst.Rows != c.NRows || dst.Cols != h.Cols {
		panic("autodiff: CSR matmul shape mismatch")
	}
	tensor.ParallelRows(c.NRows, c.NNZ()*h.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				w := c.Weights[p]
				src := h.Row(c.ColIdx[p])
				for j, v := range src {
					drow[j] += w * v
				}
			}
		}
	})
}

// MatMulRangeInto computes rows [lo, hi) of A × H sequentially,
// accumulating into zeroed dst rows. It is the caller-partitioned
// variant of MatMulInto: per-row arithmetic is identical, so any
// contiguous partition of [0, NRows) yields results bitwise equal to
// one MatMulInto call. dst rows outside [lo, hi) are untouched.
func (c *CSR) MatMulRangeInto(dst, h *tensor.Matrix, lo, hi int) {
	if h.Rows != c.NCols || dst.Rows != c.NRows || dst.Cols != h.Cols {
		panic("autodiff: CSR range matmul shape mismatch")
	}
	if lo < 0 || hi > c.NRows || lo > hi {
		panic("autodiff: CSR range matmul bad range")
	}
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			w := c.Weights[p]
			src := h.Row(c.ColIdx[p])
			for j, v := range src {
				drow[j] += w * v
			}
		}
	}
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

// fusedPanelRows is the row-panel height of the fused
// aggregate+transform kernels below: A×H is materialized only
// fusedPanelRows rows at a time in a pooled scratch panel that stays
// L1/L2-resident while it is immediately consumed by the dense layer
// transform, instead of round-tripping a full N×d intermediate through
// memory.
const fusedPanelRows = 32

// AggTransformRangeInto computes rows [lo, hi) of dst = (A × H) × W
// without materializing the full aggregation. Per output element the
// arithmetic is exactly CSR.MatMulRangeInto followed by
// tensor.MatMulRangeInto, so results are bitwise equal to the unfused
// pair and independent of the row partition. dst rows must be zeroed.
func (c *CSR) AggTransformRangeInto(dst, h, w *tensor.Matrix, lo, hi int) {
	c.aggTransformRange(dst, nil, h, w, nil, lo, hi)
}

// AggTransform2RangeInto is AggTransformRangeInto with two transforms
// sharing one aggregation: dst1 = (A×H)×W1 and dst2 = (A×H)×W2. The
// aggregated panel is computed once and consumed twice (the HAG gated
// layer needs both the neighbor transform and the attention projection
// of the same aggregate).
func (c *CSR) AggTransform2RangeInto(dst1, dst2, h, w1, w2 *tensor.Matrix, lo, hi int) {
	c.aggTransformRange(dst1, dst2, h, w1, w2, lo, hi)
}

func (c *CSR) aggTransformRange(dst1, dst2, h, w1, w2 *tensor.Matrix, lo, hi int) {
	if h.Rows != c.NCols || w1.Rows != h.Cols || dst1.Rows != c.NRows || dst1.Cols != w1.Cols {
		panic("autodiff: CSR fused agg+transform shape mismatch")
	}
	if dst2 != nil && (w2.Rows != h.Cols || dst2.Rows != c.NRows || dst2.Cols != w2.Cols) {
		panic("autodiff: CSR fused agg+transform shape mismatch (second output)")
	}
	if lo < 0 || hi > c.NRows || lo > hi {
		panic("autodiff: CSR fused agg+transform bad range")
	}
	panel := tensor.GetMatrix(fusedPanelRows, h.Cols)
	for r0 := lo; r0 < hi; r0 += fusedPanelRows {
		r1 := r0 + fusedPanelRows
		if r1 > hi {
			r1 = hi
		}
		pv := panel.RowsView(0, r1-r0)
		pv.Zero()
		for i := r0; i < r1; i++ {
			drow := pv.Row(i - r0)
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				wgt := c.Weights[p]
				src := h.Row(c.ColIdx[p])
				for j, v := range src {
					drow[j] += wgt * v
				}
			}
		}
		tensor.MatMulRangeInto(dst1.RowsView(r0, r1), pv, w1, 0, r1-r0)
		if dst2 != nil {
			tensor.MatMulRangeInto(dst2.RowsView(r0, r1), pv, w2, 0, r1-r0)
		}
	}
	tensor.PutMatrix(panel)
}

// AggTransformInto computes dst = (A × H) × W with the fused panel
// kernel, fanning row ranges out across the worker pool like MatMulInto.
func (c *CSR) AggTransformInto(dst, h, w *tensor.Matrix) {
	work := (c.NNZ() + c.NRows*w.Cols) * h.Cols
	tensor.ParallelRows(c.NRows, work, func(lo, hi int) {
		c.AggTransformRangeInto(dst, h, w, lo, hi)
	})
}

// AggTransform2Into is the parallel wrapper of AggTransform2RangeInto.
func (c *CSR) AggTransform2Into(dst1, dst2, h, w1, w2 *tensor.Matrix) {
	work := (c.NNZ() + c.NRows*(w1.Cols+w2.Cols)) * h.Cols
	tensor.ParallelRows(c.NRows, work, func(lo, hi int) {
		c.AggTransform2RangeInto(dst1, dst2, h, w1, w2, lo, hi)
	})
}

// AggTransformSplitRangeInto computes rows [lo, hi) of
// dst = [H | A×H] × W — the GraphSAGE self‖neighbor step — with the
// aggregated half fused through the same panel scheme. Bitwise equal to
// aggregating fully and calling tensor.MatMulSplitRangeInto. dst rows
// must be zeroed.
func (c *CSR) AggTransformSplitRangeInto(dst, h, w *tensor.Matrix, lo, hi int) {
	if h.Rows != c.NCols || 2*h.Cols != w.Rows || dst.Rows != c.NRows || dst.Cols != w.Cols {
		panic("autodiff: CSR fused split agg+transform shape mismatch")
	}
	if lo < 0 || hi > c.NRows || lo > hi {
		panic("autodiff: CSR fused split agg+transform bad range")
	}
	panel := tensor.GetMatrix(fusedPanelRows, h.Cols)
	for r0 := lo; r0 < hi; r0 += fusedPanelRows {
		r1 := r0 + fusedPanelRows
		if r1 > hi {
			r1 = hi
		}
		pv := panel.RowsView(0, r1-r0)
		pv.Zero()
		for i := r0; i < r1; i++ {
			drow := pv.Row(i - r0)
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				wgt := c.Weights[p]
				src := h.Row(c.ColIdx[p])
				for j, v := range src {
					drow[j] += wgt * v
				}
			}
		}
		tensor.MatMulSplitRangeInto(dst.RowsView(r0, r1), h.RowsView(r0, r1), pv, w, 0, r1-r0)
	}
	tensor.PutMatrix(panel)
}

// AggTransformSplitInto is the parallel wrapper of
// AggTransformSplitRangeInto.
func (c *CSR) AggTransformSplitInto(dst, h, w *tensor.Matrix) {
	work := (c.NNZ() + 2*c.NRows*w.Cols) * h.Cols
	tensor.ParallelRows(c.NRows, work, func(lo, hi int) {
		c.AggTransformSplitRangeInto(dst, h, w, lo, hi)
	})
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
