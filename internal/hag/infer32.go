package hag

import (
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// infer32.go mirrors infer.go on quantized weights for the opt-in
// float32 serving path (see internal/gnn/infer32.go for the engine and
// the tolerance contract). tanh and softmax use the fast float32
// approximations, so the float64 Infer remains the reference and
// gnn.ValidateF32 gates serving.

// infer32 is the float32 form of saoLayer.infer.
func (l *saoLayer) infer32(f *gnn.Fwd32, h, hN *tensor.Matrix32, gated bool) *tensor.Matrix32 {
	selfT := f.MatMul(h, l.wls.Value32())
	neighT := f.MatMul(hN, l.wln.Value32())
	if !gated {
		return tensor.ReLU32InPlace(selfT.AddInPlace(neighT))
	}
	wsH := f.MatMul(h, l.ws.Value32())
	wnN := f.MatMul(hN, l.wn.Value32())
	return l.gateCombine32(f, selfT, neighT, wsH, wnN)
}

// gateCombine32 runs Eq. 7–9 and the gated Eq. 5 combine in float32.
func (l *saoLayer) gateCombine32(f *gnn.Fwd32, selfT, neighT, wsH, wnN *tensor.Matrix32) *tensor.Matrix32 {
	tS := tensor.Tanh32InPlace(wsH)
	tN := tensor.Tanh32InPlace(wnN)
	p := l.p.Value32()
	aSelf := f.Get(selfT.Rows, 1)
	tensor.MatMul32SplitInto(aSelf, tS, tS, p)
	aNeigh := f.Get(selfT.Rows, 1)
	tensor.MatMul32SplitInto(aNeigh, tN, tS, p)
	alpha := tensor.SoftmaxRows32InPlace(f.ConcatCols(aSelf, aNeigh))
	// Gated combine row by row: selfRow = αS·selfRow + αN·neighRow, the
	// scale through the vector kernels and the neighbor term fused into
	// one FMA axpy pass instead of scale-scale-add.
	for i := 0; i < selfT.Rows; i++ {
		tensor.Scale32(selfT.Row(i), alpha.At(i, 0))
		tensor.Axpy32(selfT.Row(i), neighT.Row(i), alpha.At(i, 1))
	}
	return tensor.ReLU32InPlace(selfT)
}

// scaleRowsByCol32 scales row i of m by alpha[i, col] in place.
func scaleRowsByCol32(m, alpha *tensor.Matrix32, col int) {
	for i := 0; i < m.Rows; i++ {
		tensor.Scale32(m.Row(i), alpha.At(i, col))
	}
}

// fuse32 is the float32 form of fuse.
func (m *HAG) fuse32(f *gnn.Fwd32, hs []*tensor.Matrix32) *tensor.Matrix32 {
	n := hs[0].Rows
	scores := f.Get(n, len(hs))
	for r, h := range hs {
		s := f.MatMul(tensor.Tanh32InPlace(f.MatMul(h, m.cfo[r].wAtt.Value32())), m.cfo[r].vAtt.Value32())
		for i := 0; i < n; i++ {
			scores.Set(i, r, s.Data[i])
		}
	}
	alpha := tensor.SoftmaxRows32InPlace(scores)
	var fused *tensor.Matrix32
	for r, h := range hs {
		term := f.MatMul(h, m.cfo[r].m.Value32())
		if fused == nil {
			fused = term
			scaleRowsByCol32(fused, alpha, r)
		} else {
			// fusedRow += α[i,r]·termRow: scale and accumulate in one
			// FMA pass per row.
			for i := 0; i < fused.Rows; i++ {
				tensor.Axpy32(fused.Row(i), term.Row(i), alpha.At(i, r))
			}
		}
	}
	return fused
}

// readout32 is the float32 form of readout.
func (m *HAG) readout32(f *gnn.Fwd32, hs []*tensor.Matrix32) *tensor.Matrix32 {
	if m.cfg.DisableCFO {
		return f.MLP(m.head, hs[0])
	}
	return f.MLP(m.head, m.fuse32(f, hs))
}
