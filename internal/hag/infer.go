package hag

import (
	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// Tape-free HAG forward (see internal/gnn/infer.go for the engine and
// the equivalence contract). Every kernel mirrors the tape op it
// replaces — same MatMul kernel, same elementwise formulas, same
// accumulation order — so Infer reproduces Forward's evaluation-mode
// logits bitwise. In-place mutations only touch Fwd scratch whose tape
// counterpart is a fresh node, never an input still needed downstream.

// infer applies Eq. 5–9 without a tape. h is not mutated (streams reuse
// the input features); hN, selfT, and neighT are consumed scratch.
func (l *saoLayer) infer(f *gnn.Fwd, h, hN *tensor.Matrix, gated bool) *tensor.Matrix {
	selfT := f.MatMul(h, l.wls.Value)   // H·W_ls
	neighT := f.MatMul(hN, l.wln.Value) // h_N·W_ln
	if !gated {
		return tensor.ReLUInPlace(selfT.AddInPlace(neighT))
	}
	wsH := f.MatMul(h, l.ws.Value)  // W_s h_v
	wnN := f.MatMul(hN, l.wn.Value) // W_n h_N
	return l.gateCombine(f, selfT, neighT, wsH, wnN)
}

// inferFused is the full-graph form of infer: the two transforms of the
// neighbor aggregate (W_ln and, gated, W_n) run through the fused CSR
// aggregate+transform kernel, so h_N is only ever materialized
// panel-by-panel. Bitwise equal to infer(f, h, f.Aggregate(adj, h), …).
func (l *saoLayer) inferFused(f *gnn.Fwd, h *tensor.Matrix, adj *autodiff.CSR, gated bool) *tensor.Matrix {
	selfT := f.MatMul(h, l.wls.Value)
	neighT := f.Get(adj.NRows, l.wln.Value.Cols)
	if !gated {
		adj.AggTransformInto(neighT, h, l.wln.Value)
		return tensor.ReLUInPlace(selfT.AddInPlace(neighT))
	}
	wsH := f.MatMul(h, l.ws.Value)
	wnN := f.Get(adj.NRows, l.wn.Value.Cols)
	adj.AggTransform2Into(neighT, wnN, h, l.wln.Value, l.wn.Value)
	return l.gateCombine(f, selfT, neighT, wsH, wnN)
}

// gateCombine runs Eq. 7–9 and the gated Eq. 5 combine, consuming all
// four projections as scratch.
func (l *saoLayer) gateCombine(f *gnn.Fwd, selfT, neighT, wsH, wnN *tensor.Matrix) *tensor.Matrix {
	// Eq. 7–8: attention scores against the self projection. The tape
	// computes tanh over materialized 2d-wide concatenations; tanh is
	// elementwise, so tanh-ing each half once and running the split
	// matmul gives the identical rounding sequence with half the tanh
	// evaluations and no concat copies.
	tS := tensor.TanhInPlace(wsH) // tanh(W_s h_v), shared by both scores
	tN := tensor.TanhInPlace(wnN)
	aSelf := f.Get(selfT.Rows, 1)
	tensor.MatMulSplitInto(aSelf, tS, tS, l.p.Value)
	aNeigh := f.Get(selfT.Rows, 1)
	tensor.MatMulSplitInto(aNeigh, tN, tS, l.p.Value)
	// Eq. 9: per-node softmax over the two scores.
	alpha := tensor.SoftmaxRowsInPlace(f.ConcatCols(aSelf, aNeigh))
	// Eq. 5: gate the two transforms. Each row scale is an assignment of
	// its own, exactly like the tape's MulColVector, before the add.
	scaleRowsByCol(selfT, alpha, 0)
	scaleRowsByCol(neighT, alpha, 1)
	return tensor.ReLUInPlace(selfT.AddInPlace(neighT))
}

// scaleRowsByCol scales row i of m by alpha[i, col] in place, the
// tape MulColVector(m, SliceCols(alpha, col, col+1)) without the slice
// materialization.
func scaleRowsByCol(m, alpha *tensor.Matrix, col int) {
	for i := 0; i < m.Rows; i++ {
		s := alpha.At(i, col)
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// inferEmbed computes the fused evaluation-mode embeddings (Embed with a
// nil dropout RNG) on Fwd scratch.
func (m *HAG) inferEmbed(f *gnn.Fwd, b *gnn.Batch) *tensor.Matrix {
	gated := !m.cfg.DisableSAOGate
	if m.cfg.DisableCFO {
		h := b.X
		adj := b.MergedWeightedMeanCSR()
		for _, l := range m.streams[0] {
			h = l.inferFused(f, h, adj, gated)
		}
		return h
	}
	// Eq. 10: one SAO stream per edge type on its homogeneous subgraph.
	n := b.NumNodes
	scores := f.Get(n, m.cfg.NumEdgeTypes)
	typeEmb := make([]*tensor.Matrix, m.cfg.NumEdgeTypes)
	for r := 0; r < m.cfg.NumEdgeTypes; r++ {
		h := b.X
		adj := b.TypedMeanCSR(r)
		for _, l := range m.streams[r] {
			h = l.inferFused(f, h, adj, gated)
		}
		typeEmb[r] = h
		// Eq. 12 (micro level): score_{v,r} = v_rᵀ tanh(W_r h_{v,r}).
		s := f.MatMul(tensor.TanhInPlace(f.MatMul(h, m.cfo[r].wAtt.Value)), m.cfo[r].vAtt.Value)
		for i := 0; i < n; i++ {
			scores.Set(i, r, s.Data[i])
		}
	}
	// Eq. 12: node-wise softmax over types.
	alpha := tensor.SoftmaxRowsInPlace(scores)
	// Eq. 13–15: H_v = Σ_r α_{v,r} · (h_{v,r} M_r).
	var fused *tensor.Matrix
	for r := 0; r < m.cfg.NumEdgeTypes; r++ {
		term := f.MatMul(typeEmb[r], m.cfo[r].m.Value)
		scaleRowsByCol(term, alpha, r)
		if fused == nil {
			fused = term
		} else {
			fused.AddInPlace(term)
		}
	}
	return fused
}

// Infer implements gnn.Inferer: the evaluation-mode HAG forward without
// a tape.
func (m *HAG) Infer(f *gnn.Fwd, b *gnn.Batch) *tensor.Matrix {
	return f.MLP(m.head, m.inferEmbed(f, b))
}

// targetRow runs SAO stream r for one node over adj on the node's
// computation cone (gnn.Fwd.ConeForward) and returns the stream's 1-row
// embedding. saoLayer.infer is row-wise throughout, so the rows it is
// fed reproduce the full forward's bitwise.
func (m *HAG) targetRow(f *gnn.Fwd, b *gnn.Batch, adj *autodiff.CSR, r, node int) *tensor.Matrix {
	gated := !m.cfg.DisableSAOGate
	ls := m.streams[r]
	return f.ConeForward(adj, b.X, node, len(ls), func(l int, h, hN *tensor.Matrix) *tensor.Matrix {
		return ls[l].infer(f, h, hN, gated)
	})
}

// InferTarget implements gnn.TargetInferer. Each stream runs on the
// target's cone over the matrix that stream aggregates with — its own
// edge type's, or the merged one under CFO(-) — so a stream in which
// the target has no in-edges costs one row. The CFO micro-attention, the
// type fusion and the head run on the target row alone.
func (m *HAG) InferTarget(f *gnn.Fwd, b *gnn.Batch, node int) float64 {
	if m.cfg.DisableCFO {
		return f.MLP(m.head, m.targetRow(f, b, b.MergedWeightedMeanCSR(), 0, node)).Data[0]
	}
	nTypes := m.cfg.NumEdgeTypes
	scores := f.Get(1, nTypes)
	rows := make([]*tensor.Matrix, nTypes)
	for r := 0; r < nTypes; r++ {
		row := m.targetRow(f, b, b.TypedMeanCSR(r), r, node)
		rows[r] = row
		s := f.MatMul(tensor.TanhInPlace(f.MatMul(row, m.cfo[r].wAtt.Value)), m.cfo[r].vAtt.Value)
		scores.Set(0, r, s.Data[0])
	}
	alpha := tensor.SoftmaxRowsInPlace(scores)
	var fused *tensor.Matrix
	for r := 0; r < nTypes; r++ {
		term := f.MatMul(rows[r], m.cfo[r].m.Value)
		scaleRowsByCol(term, alpha, r)
		if fused == nil {
			fused = term
		} else {
			fused.AddInPlace(term)
		}
	}
	return f.MLP(m.head, fused).Data[0]
}
