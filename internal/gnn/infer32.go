package gnn

import (
	"math"
	"slices"
	"sync"

	"turbo/internal/autodiff"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// infer32.go is the opt-in float32 serving path. It mirrors infer.go
// kernel for kernel on quantized weights (nn.Parameter.Value32) and
// quantized batch structures (Batch.X32 / CSR32For), with a different
// contract: float64 Infer stays the bitwise reference, Infer32 is
// tolerance-equivalent. ValidateF32 measures the per-node logit gap so
// callers (the prediction server) can gate the fast path on an explicit
// bound and fall back to float64 when a model quantizes badly.

// Inferer32 is a Model with a float32 tape-free forward. The returned
// logits matrix is Fwd32 scratch.
type Inferer32 interface {
	Infer32(f *Fwd32, b *Batch) *tensor.Matrix32
}

// TargetInferer32 is an Inferer32 that can compute a single node's
// logit without materializing every node's.
type TargetInferer32 interface {
	Inferer32
	InferTarget32(f *Fwd32, b *Batch, node int) float32
}

// CanInfer32 reports whether m supports the float32 serving path.
func CanInfer32(m Model) bool {
	_, ok := m.(Inferer32)
	return ok
}

// Fwd32 is the float32 analog of Fwd: a single-goroutine scratch arena
// whose matrices stay warm across Acquire/Release cycles.
type Fwd32 struct {
	mats []*tensor.Matrix32
	used int
	cone Cone
	cols []int32            // one row's columns mapped to cone positions
	hs   []*tensor.Matrix32 // one block per stack, handed to a Spec32's readout
}

var fwd32Pool = sync.Pool{New: func() any { return new(Fwd32) }}

// AcquireFwd32 returns a float32 forward context from the pool.
func AcquireFwd32() *Fwd32 { return fwd32Pool.Get().(*Fwd32) }

// ReleaseFwd32 recycles the context; all matrices obtained from it are
// invalid afterwards.
func ReleaseFwd32(f *Fwd32) {
	if len(f.mats) > maxFwdMats {
		for i := maxFwdMats; i < len(f.mats); i++ {
			tensor.PutMatrix32(f.mats[i])
			f.mats[i] = nil
		}
		f.mats = f.mats[:maxFwdMats]
	}
	f.used = 0
	fwd32Pool.Put(f)
}

// Get returns a zeroed rows×cols scratch matrix owned by f.
func (f *Fwd32) Get(rows, cols int) *tensor.Matrix32 {
	if f.used < len(f.mats) {
		m := f.mats[f.used].Reshape(rows, cols)
		f.used++
		return m
	}
	m := tensor.GetMatrix32(rows, cols)
	f.mats = append(f.mats, m)
	f.used++
	return m
}

// MatMul computes a × b into scratch.
func (f *Fwd32) MatMul(a, b *tensor.Matrix32) *tensor.Matrix32 {
	out := f.Get(a.Rows, b.Cols)
	tensor.MatMul32Into(out, a, b)
	return out
}

// Linear applies y = xW + b on the quantized layer weights.
func (f *Fwd32) Linear(l *nn.Linear, x *tensor.Matrix32) *tensor.Matrix32 {
	return f.MatMul(x, l.W.Value32()).AddRowVectorInPlace(l.B.Value32())
}

// MLP runs the classification head on quantized weights.
func (f *Fwd32) MLP(m *nn.MLP, x *tensor.Matrix32) *tensor.Matrix32 {
	h := x
	for i, l := range m.Layers {
		h = f.Linear(l, h)
		if i+1 < len(m.Layers) {
			h = m.Hidden.Apply32InPlace(h)
		}
	}
	return h
}

// ConcatCols writes [a ; b] side by side into scratch.
func (f *Fwd32) ConcatCols(a, b *tensor.Matrix32) *tensor.Matrix32 {
	out := f.Get(a.Rows, a.Cols+b.Cols)
	tensor.ConcatCols32Into(out, a, b)
	return out
}

// Aggregate computes A × h into scratch.
func (f *Fwd32) Aggregate(a *tensor.CSR32, h *tensor.Matrix32) *tensor.Matrix32 {
	out := f.Get(a.NRows, h.Cols)
	a.MatMulInto(out, h)
	return out
}

// SelectRows gathers rows idx of m into scratch.
func (f *Fwd32) SelectRows(m *tensor.Matrix32, idx []int) *tensor.Matrix32 {
	out := f.Get(len(idx), m.Cols)
	tensor.SelectRows32Into(out, m, idx)
	return out
}

// ConeForward is the float32 mirror of Fwd.ConeForward. a32 is the
// mirror of a (Batch.CSR32For); the cone is read off a, whose row
// structure a32 shares.
func (f *Fwd32) ConeForward(a *autodiff.CSR, a32 *tensor.CSR32, x *tensor.Matrix32, node, layers int, layer func(l int, h, hN *tensor.Matrix32) *tensor.Matrix32) *tensor.Matrix32 {
	c := &f.cone
	c.build(a, node, layers-1)
	h := f.SelectRows(x, c.Rows(layers-1))
	for l := 0; l < layers; l++ {
		rows := c.Rows(layers - 1 - l)
		var hN *tensor.Matrix32
		if l == 0 {
			hN = f.aggregateRows(a32, x, rows, nil)
		} else {
			hN = f.aggregateRows(a32, h, rows, c.pos)
		}
		if len(rows) < h.Rows {
			h = h.RowsView(0, len(rows))
		}
		h = layer(l, h, hN)
	}
	return h
}

// aggregateRows computes the given rows of A × h into len(rows)×cols
// scratch through the CSR row kernel. h holds node j in row j, or in row
// pos[j] when pos is given.
func (f *Fwd32) aggregateRows(a *tensor.CSR32, h *tensor.Matrix32, rows, pos []int) *tensor.Matrix32 {
	out := f.Get(len(rows), h.Cols)
	for k, i := range rows {
		s, e := a.RowPtr[i], a.RowPtr[i+1]
		cols := a.ColIdx[s:e]
		if pos != nil {
			f.cols = f.cols[:0]
			for _, j := range cols {
				f.cols = append(f.cols, int32(pos[j]))
			}
			cols = f.cols
		}
		tensor.CSRRow32Into(out.Row(k), cols, a.Weights[s:e], h)
	}
	return out
}

// stackRows returns f's one-block-per-stack slice, resized to n.
func (f *Fwd32) stackRows(n int) []*tensor.Matrix32 {
	f.hs = slices.Grow(f.hs[:0], n)[:n]
	return f.hs
}

func abs32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}

// maxAbs32 returns max_i |v[i]| (0 for an empty slice).
func maxAbs32(v []float32) float32 {
	var m float32
	for _, x := range v {
		if a := abs32(x); a > m {
			m = a
		}
	}
	return m
}

// edgeSoftmax computes GAT attention weights directly in
// scatter-position order: for positions p ∈ [rowPtr[i], rowPtr[i+1])
// the destination is node i and the source is nodeCol[p], so the
// LeakyReLU scores, the per-destination softmax and the α-weighted
// aggregation all run on contiguous ranges with no edge-id indirection,
// and the exponentials go through one vectorized Exp32InPlace pass over
// every edge. ss is the n×2 [src‖dst] score projection of wh.
//
// Softmax is shift-invariant, so when max|sSrc|+max|sDst| bounds every
// score safely inside exp's float32 range (a per-node check over n
// values instead of per-edge max tracking over every edge), the score
// loop skips the shift entirely and applies LeakyReLU branchlessly as
// 0.6·s + 0.4·|s| (= s for s ≥ 0, 0.2·s for s < 0, to rounding).
// Otherwise it falls back to the classic per-segment max subtraction.
//
// The scores live interleaved inside the augmented head matmul output
// whx (see GAT.Infer32): node i's [src, dst] pair sits at columns
// [off, off+1] of row i, so sSrc(i) = d[i*ld+off], sDst(i) =
// d[i*ld+off+1] with ld = whx.Cols.
func (f *Fwd32) edgeSoftmax(whx *tensor.Matrix32, scoreOff int, rowPtr []int, nodeCol []int32) *tensor.Matrix32 {
	n := len(rowPtr) - 1
	w := f.Get(rowPtr[n], 1)
	ssd := whx.Data
	ld := whx.Cols
	var mxS, mxD float32
	for i := 0; i < n; i++ {
		if a := abs32(ssd[i*ld+scoreOff]); a > mxS {
			mxS = a
		}
		if a := abs32(ssd[i*ld+scoreOff+1]); a > mxD {
			mxD = a
		}
	}
	if mxS+mxD <= 60 {
		for i := 0; i < n; i++ {
			seg := w.Data[rowPtr[i]:rowPtr[i+1]]
			cols := nodeCol[rowPtr[i]:rowPtr[i+1]]
			sd := ssd[i*ld+scoreOff+1]
			for j, c := range cols {
				s := ssd[int(c)*ld+scoreOff] + sd
				seg[j] = 0.6*s + 0.4*abs32(s)
			}
		}
	} else {
		negInf := float32(math.Inf(-1))
		for i := 0; i < n; i++ {
			seg := w.Data[rowPtr[i]:rowPtr[i+1]]
			cols := nodeCol[rowPtr[i]:rowPtr[i+1]]
			sd := ssd[i*ld+scoreOff+1]
			mx := negInf
			for j, c := range cols {
				s := ssd[int(c)*ld+scoreOff] + sd
				if s <= 0 {
					s *= 0.2 // LeakyReLU, same slope as the float64 path
				}
				seg[j] = s
				if s > mx {
					mx = s
				}
			}
			for j := range seg {
				seg[j] -= mx
			}
		}
	}
	tensor.Exp32InPlace(w.Data)
	for i := 0; i < n; i++ {
		seg := w.Data[rowPtr[i]:rowPtr[i+1]]
		var sum float32
		for _, v := range seg {
			sum += v
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range seg {
			seg[j] *= inv
		}
	}
	return w
}

// --- model Infer32 implementations -----------------------------------------

// Infer32 implements Inferer32 for GAT with the same two algebraic
// shortcuts as the float64 Infer (node-level score projections, a
// weighted sparse matmul for the aggregation).
func (m *GAT) Infer32(f *Fwd32, b *Batch) *tensor.Matrix32 {
	st := b.gatStruct()
	nodeCol := b.gatNodeCol32(st)
	h := b.X32()
	n := b.NumNodes
	for _, layer := range m.layers {
		outCols := 0
		for _, hd := range layer.heads {
			outCols += hd.w.Value.Cols
		}
		outs := f.Get(n, outCols)
		off := 0
		for _, hd := range layer.heads {
			// Fold the attention projections into the head matmul: since
			// ss = (h×W)×att = h×(W×att), augmenting W with the two tiny
			// columns W·attSrc and W·attDst makes one matmul produce the
			// transformed features AND both score columns — no separate
			// n×2 projection pass. Under the vector kernels the operand is
			// zero-padded to a full 8-column tile so the whole product
			// stays on the FMA path (the pad columns are never read).
			wv := hd.w.Value32()
			aS, aD := hd.attSrc.Value32(), hd.attDst.Value32()
			kin, width := wv.Rows, wv.Cols
			naug := width + 2
			if tensor.SIMDEnabled() {
				naug = (naug + 7) &^ 7
			}
			waug := f.Get(kin, naug)
			for r := 0; r < kin; r++ {
				row := waug.Data[r*naug : r*naug+naug]
				wrow := wv.Data[r*width : (r+1)*width]
				copy(row, wrow)
				var s, d float32
				for j, x := range wrow {
					s += x * aS.Data[j]
					d += x * aD.Data[j]
				}
				row[width] = s
				row[width+1] = d
			}
			whx := f.MatMul(h, waug)
			w := f.edgeSoftmax(whx, width, st.scatter.RowPtr, nodeCol)
			adj := tensor.CSR32{NRows: n, NCols: n, RowPtr: st.scatter.RowPtr, ColIdx: nodeCol, Weights: w.Data}
			adj.MatMulColsInto(outs, off, whx, width)
			off += width
		}
		h = tensor.ReLU32InPlace(outs)
	}
	return f.MLP(m.head, h)
}

// --- scoring and validation -------------------------------------------------

// Score32 scores node 0 of the batch through the float32 path, and
// reports false when the model does not implement it or the batch does
// not admit it (the caller's float64 fallback, ScoreCtx, then names the
// error). The final logit→probability sigmoid stays in float64, matching
// every other scoring path.
func Score32(m Model, b *Batch) (float64, bool) {
	if !b.admits(m) {
		return 0, false
	}
	if ti, ok := m.(TargetInferer32); ok {
		f := AcquireFwd32()
		s := tensor.SigmoidScalar(float64(ti.InferTarget32(f, b, 0)))
		ReleaseFwd32(f)
		return s, true
	}
	if inf, ok := m.(Inferer32); ok {
		f := AcquireFwd32()
		s := tensor.SigmoidScalar(float64(inf.Infer32(f, b).Data[0]))
		ReleaseFwd32(f)
		return s, true
	}
	return 0, false
}

// ValidateF32 compares the float32 logits against the float64 reference
// on every node of b and reports the largest absolute gap. ok is false
// when the model lacks either path or the gap exceeds tol — the caller
// must then serve float64.
func ValidateF32(m Model, b *Batch, tol float64) (maxDelta float64, ok bool) {
	inf, ok64 := m.(Inferer)
	inf32, ok32 := m.(Inferer32)
	if !ok64 || !ok32 {
		return 0, false
	}
	f := AcquireFwd()
	defer ReleaseFwd(f)
	want := inf.Infer(f, b)
	f2 := AcquireFwd32()
	defer ReleaseFwd32(f2)
	got := inf32.Infer32(f2, b)
	for i := 0; i < b.NumNodes; i++ {
		if d := math.Abs(want.Data[i] - float64(got.Data[i])); d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta, maxDelta <= tol
}
