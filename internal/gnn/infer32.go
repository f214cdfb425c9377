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
	mats  []*tensor.Matrix32
	used  int
	cone  Cone
	cols  []int32            // one row's columns mapped to cone positions
	alpha []float32          // one attention segment's scores, then weights
	hs    []*tensor.Matrix32 // one block per stack, handed to a Spec32's readout
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

// SelectRows gathers rows idx of m into scratch.
func (f *Fwd32) SelectRows(m *tensor.Matrix32, idx []int) *tensor.Matrix32 {
	out := f.Get(len(idx), m.Cols)
	tensor.SelectRows32Into(out, m, idx)
	return out
}

// ConeForward is the float32 mirror of Fwd.ConeForward. a32 is the
// mirror of a (Batch.CSR32For); the cone is read off a, whose row
// structure a32 shares.
func (f *Fwd32) ConeForward(st *Stack32, a *autodiff.CSR, a32 *tensor.CSR32, x *tensor.Matrix32, node int) *tensor.Matrix32 {
	layers := st.layers()
	depth := layers - 1
	if st.Project != nil {
		depth = layers
	}
	c := &f.cone
	c.build(a, node, depth)
	h := f.SelectRows(x, c.Rows(depth))
	for l := 0; l < layers; l++ {
		rows := c.Rows(layers - 1 - l)
		var hN *tensor.Matrix32
		switch {
		case st.Project != nil:
			hN = f.aggregate(st, l, a32, st.Project(f, l, h), rows, c.pos)
		case l == 0:
			hN = f.aggregate(st, l, a32, x, rows, nil)
		default:
			hN = f.aggregate(st, l, a32, h, rows, c.pos)
		}
		if len(rows) < h.Rows {
			h = h.RowsView(0, len(rows))
		}
		h = st.Layer(f, l, h, hN)
	}
	return h
}

// aggregate computes the given rows of stack st's layer-l aggregation
// over src — the layer's input, or an attention stack's projection of it
// — into len(rows)×width scratch, every row when rows is nil. src holds
// node j in row j, or in row pos[j] when pos is given.
func (f *Fwd32) aggregate(st *Stack32, l int, a *tensor.CSR32, src *tensor.Matrix32, rows, pos []int) *tensor.Matrix32 {
	if st.Project == nil && rows == nil {
		out := f.Get(a.NRows, src.Cols)
		a.MatMulInto(out, src)
		return out
	}
	n, width := len(rows), src.Cols
	if rows == nil {
		n = a.NRows
	}
	if st.Project != nil {
		width = st.Widths[l+1]
	}
	out := f.Get(n, width)
	for k := 0; k < n; k++ {
		i := k
		if rows != nil {
			i = rows[k]
		}
		s, e := a.RowPtr[i], a.RowPtr[i+1]
		cols, self := a.ColIdx[s:e], i
		if pos != nil {
			f.cols = f.cols[:0]
			for _, j := range cols {
				f.cols = append(f.cols, int32(pos[j]))
			}
			cols, self = f.cols, pos[i]
		}
		if st.Project == nil {
			tensor.CSRRow32Into(out.Row(k), cols, a.Weights[s:e], src, 0)
			continue
		}
		f.alpha = slices.Grow(f.alpha[:0], len(cols))[:len(cols)]
		attendRow32(out.Row(k), src, st.Heads, self, cols, f.alpha)
	}
	return out
}

// attendRow32 is the float32 attendRow. Each head's segment stores its
// LeakyReLU scores in alpha (len(cols) long), shifts them by the
// segment's own maximum and exponentiates them in one vectorized pass
// over the segment alone, so a row's weights do not depend on which
// other rows are computed with it — the cone and the full forward agree
// bitwise. The α-weighted sum runs through the CSR row kernel over the
// head's column block of z.
func attendRow32(drow []float32, z *tensor.Matrix32, heads, self int, cols []int32, alpha []float32) {
	d := len(drow) / heads
	ld := z.Cols
	for k := 0; k < heads; k++ {
		sc := len(drow) + 2*k
		sd := z.Data[self*ld+sc+1]
		mx := float32(math.Inf(-1))
		for p, j := range cols {
			s := z.Data[int(j)*ld+sc] + sd
			if s <= 0 {
				s *= 0.2 // LeakyReLU, same slope as the float64 path
			}
			alpha[p] = s
			if s > mx {
				mx = s
			}
		}
		for p := range alpha {
			alpha[p] -= mx
		}
		tensor.Exp32InPlace(alpha)
		var sum float32
		for _, v := range alpha {
			sum += v
		}
		if sum != 0 {
			tensor.Scale32(alpha, 1/sum)
		}
		tensor.CSRRow32Into(drow[k*d:(k+1)*d], cols, alpha, z, k*d)
	}
}

// stackRows returns f's one-block-per-stack slice, resized to n.
func (f *Fwd32) stackRows(n int) []*tensor.Matrix32 {
	f.hs = slices.Grow(f.hs[:0], n)[:n]
	return f.hs
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
	ti, ok := m.(TargetInferer32)
	if !ok {
		return 0, false
	}
	f := AcquireFwd32()
	s := tensor.SigmoidScalar(float64(ti.InferTarget32(f, b, 0)))
	ReleaseFwd32(f)
	return s, true
}

// ValidateF32 compares the float32 logits against the float64 reference
// on every node of b and reports the largest absolute gap. ok is false
// when the model lacks the float32 path or the gap exceeds tol — the caller
// must then serve float64.
func ValidateF32(m Model, b *Batch, tol float64) (maxDelta float64, ok bool) {
	inf32, ok := m.(Inferer32)
	if !ok {
		return 0, false
	}
	f := AcquireFwd()
	defer ReleaseFwd(f)
	want := m.Infer(f, b)
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
