package autodiff

import "turbo/internal/tensor"

// Aggregate records out = A × h on the tape, propagating gradients
// through h but treating the adjacency weights as constants. This is the
// neighborhood-aggregation primitive all GNN layers build on. The
// forward is tensor.CSR.MatMulInto, the row kernel the tape-free
// forwards run, so both paths aggregate bitwise alike.
func (t *Tape) Aggregate(a *tensor.CSR[float64], h *Node) *Node {
	v := t.buf(a.NRows, h.Value.Cols, true)
	a.MatMulInto(v, h.Value)
	var out *Node
	out = t.op(v, func() {
		if !h.requiresGrad {
			return
		}
		addMatMulTrans(h.ensureGrad(), a, out.Grad)
	}, h)
	return out
}

// addMatMulTrans accumulates Aᵀ × g into dst, the backward of Aggregate.
func addMatMulTrans(dst *tensor.Matrix, a *tensor.CSR[float64], g *tensor.Matrix) {
	for i := 0; i < a.NRows; i++ {
		src := g.Row(i)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			w := a.Weights[p]
			row := dst.Row(int(a.ColIdx[p]))
			for j, v := range src {
				row[j] += w * v
			}
		}
	}
}
