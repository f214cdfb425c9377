package hag

import (
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// Tape-free HAG forward: the SAO layer and the CFO readout, written once
// over gnn.Fwd[F] and handed to gnn.Spec by spec (see
// internal/gnn/spec.go for the forwards and internal/gnn/infer.go for
// the equivalence contract). At float64 every kernel mirrors the tape op
// it replaces — same MatMul kernel, same elementwise formulas, same
// accumulation order — so every forward reproduces Forward's
// evaluation-mode logits bitwise. At float32, tanh and softmax take the
// fast float32 kernels and the row combines fuse into FMAs
// (gnn.Fwd.AddScaledRows), under gnn.ValidateF32's gate. In-place
// mutations only touch Fwd scratch whose tape counterpart is a fresh
// node, never an input still needed downstream.

// spec is HAG's forward at precision F: one stack per SAO stream, on
// its type's matrix or, under CFO(-), on the merged one, and the CFO
// fusion plus head as the readout.
func spec[F tensor.Float](m *HAG, sizes []int) gnn.Spec[F] {
	gated := !m.cfg.DisableSAOGate
	var s gnn.Spec[F]
	for r, stack := range m.streams {
		agg := gnn.TypedMean(r)
		if m.cfg.DisableCFO {
			agg = gnn.MergedWeightedMean
		}
		s.Stacks = append(s.Stacks, gnn.Stack[F]{Agg: agg, Widths: sizes, Layer: func(f *gnn.Fwd[F], l int, h, hN *tensor.Mat[F]) *tensor.Mat[F] {
			return sao(f, stack[l], h, hN, gated)
		}})
	}
	s.Readout = func(f *gnn.Fwd[F], hs []*tensor.Mat[F]) *tensor.Mat[F] {
		if m.cfg.DisableCFO {
			return f.MLP(m.head, hs[0])
		}
		return f.MLP(m.head, fuse(f, m.cfo, hs))
	}
	return s
}

// sao applies Eq. 5–9 of layer l without a tape, as a gnn.Stack layer: h
// and hN are only read (streams share the input features, and Infer
// shares h across tiles); the projections are consumed scratch.
func sao[F tensor.Float](f *gnn.Fwd[F], l *saoLayer, h, hN *tensor.Mat[F], gated bool) *tensor.Mat[F] {
	selfT := f.MatMul(h, f.Value(l.wls))   // H·W_ls
	neighT := f.MatMul(hN, f.Value(l.wln)) // h_N·W_ln
	if !gated {
		return tensor.ReLUInPlace(selfT.AddInPlace(neighT))
	}
	wsH := f.MatMul(h, f.Value(l.ws))  // W_s h_v
	wnN := f.MatMul(hN, f.Value(l.wn)) // W_n h_N
	// Eq. 7–8: attention scores against the self projection. The tape
	// computes tanh over materialized 2d-wide concatenations; tanh is
	// elementwise, so tanh-ing each half once and running the split
	// matmul gives the identical rounding sequence with half the tanh
	// evaluations and no concat copies.
	tS := tensor.TanhInPlace(wsH) // tanh(W_s h_v), shared by both scores
	tN := tensor.TanhInPlace(wnN)
	p := f.Value(l.p)
	aSelf := f.MatMulSplit(tS, tS, p)
	aNeigh := f.MatMulSplit(tN, tS, p)
	// Eq. 9: per-node softmax over the two scores.
	alpha := tensor.SoftmaxRowsInPlace(f.ConcatCols(aSelf, aNeigh))
	// Eq. 5: gate the two transforms, α_self·selfT + α_neigh·neighT.
	return tensor.ReLUInPlace(f.AddScaledRows(f.ScaleRows(selfT, alpha, 0), neighT, alpha, 1))
}

// fuse is the CFO of Eq. 10–15 over a block of rows, hs[r] holding the
// rows' type-r stream embeddings: the micro-level attention scores, the
// node-wise softmax over types, and the α-weighted sum of the macro
// transforms.
func fuse[F tensor.Float](f *gnn.Fwd[F], cfo []*cfoType, hs []*tensor.Mat[F]) *tensor.Mat[F] {
	n := hs[0].Rows
	scores := f.Get(n, len(hs))
	for r, h := range hs {
		// Eq. 12 (micro level): score_{v,r} = v_rᵀ tanh(W_r h_{v,r}).
		s := f.MatMul(tensor.TanhInPlace(f.MatMul(h, f.Value(cfo[r].wAtt))), f.Value(cfo[r].vAtt))
		for i := 0; i < n; i++ {
			scores.Set(i, r, s.Data[i])
		}
	}
	// Eq. 12: node-wise softmax over types.
	alpha := tensor.SoftmaxRowsInPlace(scores)
	// Eq. 13–15: H_v = Σ_r α_{v,r} · (h_{v,r} M_r).
	var fused *tensor.Mat[F]
	for r, h := range hs {
		term := f.MatMul(h, f.Value(cfo[r].m))
		if fused == nil {
			fused = f.ScaleRows(term, alpha, r)
		} else {
			f.AddScaledRows(fused, term, alpha, r)
		}
	}
	return fused
}
