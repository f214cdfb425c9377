package hag

import (
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// Tape-free HAG forward: the SAO layer and the CFO readout that New
// hands to gnn.Spec (see internal/gnn/spec.go for the forwards and
// internal/gnn/infer.go for the equivalence contract). Every kernel
// mirrors the tape op it replaces — same MatMul kernel, same elementwise
// formulas, same accumulation order — so every forward reproduces
// Forward's evaluation-mode logits bitwise. In-place mutations only
// touch Fwd scratch whose tape counterpart is a fresh node, never an
// input still needed downstream.

// infer applies Eq. 5–9 without a tape, as a gnn.Stack layer: h and hN
// are only read (streams share the input features, and a sweep shares
// h across workers); the projections are consumed scratch.
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
	aSelf := f.MatMulSplit(tS, tS, l.p.Value)
	aNeigh := f.MatMulSplit(tN, tS, l.p.Value)
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

// fuse is the CFO of Eq. 10–15 over a block of rows, hs[r] holding the
// rows' type-r stream embeddings: the micro-level attention scores, the
// node-wise softmax over types, and the α-weighted sum of the macro
// transforms.
func (m *HAG) fuse(f *gnn.Fwd, hs []*tensor.Matrix) *tensor.Matrix {
	n := hs[0].Rows
	scores := f.Get(n, len(hs))
	for r, h := range hs {
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
	for r, h := range hs {
		term := f.MatMul(h, m.cfo[r].m.Value)
		scaleRowsByCol(term, alpha, r)
		if fused == nil {
			fused = term
		} else {
			fused.AddInPlace(term)
		}
	}
	return fused
}

// readout is the head over the fused embeddings, or over the single
// merged stream under CFO(-).
func (m *HAG) readout(f *gnn.Fwd, hs []*tensor.Matrix) *tensor.Matrix {
	if m.cfg.DisableCFO {
		return f.MLP(m.head, hs[0])
	}
	return f.MLP(m.head, m.fuse(f, hs))
}
