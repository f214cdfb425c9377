package autodiff

import (
	"fmt"
	"math"

	"turbo/internal/tensor"
)

func anyGrad(nodes ...*Node) bool {
	for _, n := range nodes {
		if n.requiresGrad {
			return true
		}
	}
	return false
}

func (t *Tape) op(value *tensor.Matrix, backward func(), inputs ...*Node) *Node {
	n := t.node(value, nil, anyGrad(inputs...))
	if n.requiresGrad {
		n.backward = backward
	}
	return n
}

// copyOf returns a tape buffer holding a copy of m.
func (t *Tape) copyOf(m *tensor.Matrix) *tensor.Matrix {
	v := t.buf(m.Rows, m.Cols, false)
	copy(v.Data, m.Data)
	return v
}

// MatMul records c = a × b. The backward products g × bᵀ and aᵀ × g
// run on the forward's row kernel over a transposed operand
// (tensor.MulTransBInto and MulTransAInto), into the tape's scratch,
// and are then added to the gradients.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.buf(a.Value.Rows, b.Value.Cols, true)
	tensor.MatMulInto(v, a.Value, b.Value)
	var out *Node
	out = t.op(v, func() {
		g := out.Grad
		if a.requiresGrad {
			p := t.scratchBuf(1, g.Rows, b.Value.Rows, true)
			tensor.MulTransBInto(p, g, b.Value, t.scratchBuf(0, b.Value.Cols, b.Value.Rows, false))
			a.ensureGrad().AddInPlace(p)
		}
		if b.requiresGrad {
			p := t.scratchBuf(1, a.Value.Cols, g.Cols, true)
			tensor.MulTransAInto(p, a.Value, g, t.scratchBuf(0, a.Value.Cols, a.Value.Rows, false))
			b.ensureGrad().AddInPlace(p)
		}
	}, a, b)
	return out
}

// Add records c = a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	v := t.copyOf(a.Value).AddInPlace(b.Value)
	var out *Node
	out = t.op(v, func() {
		if a.requiresGrad {
			a.ensureGrad().AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad().AddInPlace(out.Grad)
		}
	}, a, b)
	return out
}

// Sub records c = a − b.
func (t *Tape) Sub(a, b *Node) *Node {
	v := t.copyOf(a.Value).SubInPlace(b.Value)
	var out *Node
	out = t.op(v, func() {
		if a.requiresGrad {
			a.ensureGrad().AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad().AddScaledInPlace(out.Grad, -1)
		}
	}, a, b)
	return out
}

// addProduct adds x[i]·y[i] into dst element by element. The explicit
// conversion keeps the product rounded on its own, so the sum rounds as
// adding a materialized product would.
func addProduct(dst, x, y []float64) {
	for i, xv := range x {
		dst[i] += float64(xv * y[i])
	}
}

// Mul records the element-wise product c = a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	v := t.copyOf(a.Value).MulInPlace(b.Value)
	var out *Node
	out = t.op(v, func() {
		if a.requiresGrad {
			addProduct(a.ensureGrad().Data, out.Grad.Data, b.Value.Data)
		}
		if b.requiresGrad {
			addProduct(b.ensureGrad().Data, out.Grad.Data, a.Value.Data)
		}
	}, a, b)
	return out
}

// Scale records c = s·a for a fixed scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v := t.copyOf(a.Value).ScaleInPlace(s)
	var out *Node
	out = t.op(v, func() {
		if a.requiresGrad {
			a.ensureGrad().AddScaledInPlace(out.Grad, s)
		}
	}, a)
	return out
}

// AddRowVector records c = a + 1·vᵀ, broadcasting the 1×C bias v to rows.
func (t *Tape) AddRowVector(a, v *Node) *Node {
	val := t.copyOf(a.Value).AddRowVectorInPlace(v.Value)
	var out *Node
	out = t.op(val, func() {
		g := out.Grad
		if a.requiresGrad {
			a.ensureGrad().AddInPlace(g)
		}
		if v.requiresGrad {
			sum := t.scratchBuf(0, 1, g.Cols, true)
			tensor.SumColsInto(sum, g)
			v.ensureGrad().AddInPlace(sum)
		}
	}, a, v)
	return out
}

// MulColVector records c[i,:] = a[i,:] · v[i], with v an N×1 column.
func (t *Tape) MulColVector(a, v *Node) *Node {
	val := t.copyOf(a.Value).MulColVectorInPlace(v.Value)
	var out *Node
	out = t.op(val, func() {
		g := out.Grad
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := 0; i < g.Rows; i++ {
				s := v.Value.Data[i]
				dst := ga.Row(i)
				for j, gv := range g.Row(i) {
					dst[j] += float64(gv * s)
				}
			}
		}
		if v.requiresGrad {
			gv := v.ensureGrad()
			for i := 0; i < a.Value.Rows; i++ {
				gv.Data[i] += tensor.Dot(g.Row(i), a.Value.Row(i))
			}
		}
	}, a, v)
	return out
}

// ReLU records c = max(0, a) (tensor.ReLUInto: −0 and NaN become +0).
func (t *Tape) ReLU(a *Node) *Node {
	v := t.buf(a.Value.Rows, a.Value.Cols, false)
	tensor.ReLUInto(v, a.Value)
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, av := range a.Value.Data {
			if av > 0 {
				g.Data[i] += out.Grad.Data[i]
			}
		}
	}, a)
	return out
}

// Tanh records c = tanh(a).
func (t *Tape) Tanh(a *Node) *Node {
	v := tensor.TanhInPlace(t.copyOf(a.Value))
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, tv := range out.Value.Data {
			g.Data[i] += out.Grad.Data[i] * (1 - tv*tv)
		}
	}, a)
	return out
}

// Sigmoid records c = σ(a).
func (t *Tape) Sigmoid(a *Node) *Node {
	v := tensor.SigmoidInPlace(t.copyOf(a.Value))
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, sv := range out.Value.Data {
			g.Data[i] += out.Grad.Data[i] * sv * (1 - sv)
		}
	}, a)
	return out
}

// SoftmaxRows records row-wise softmax.
func (t *Tape) SoftmaxRows(a *Node) *Node {
	v := t.buf(a.Value.Rows, a.Value.Cols, false)
	tensor.SoftmaxRowsInto(v, a.Value)
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < v.Rows; i++ {
			srow := out.Value.Row(i)
			grow := out.Grad.Row(i)
			dot := tensor.Dot(grow, srow)
			dst := g.Row(i)
			for j, s := range srow {
				dst[j] += s * (grow[j] - dot)
			}
		}
	}, a)
	return out
}

// addCols adds columns [from, from+dst.Cols) of src into dst.
func addCols(dst, src *tensor.Matrix, from int) {
	for i := 0; i < dst.Rows; i++ {
		s := src.Row(i)[from : from+dst.Cols]
		d := dst.Row(i)
		for j, gv := range s {
			d[j] += gv
		}
	}
}

// ConcatCols records c = [a ; b] side by side.
func (t *Tape) ConcatCols(a, b *Node) *Node {
	v := t.buf(a.Value.Rows, a.Value.Cols+b.Value.Cols, false)
	tensor.ConcatColsInto(v, a.Value, b.Value)
	var out *Node
	out = t.op(v, func() {
		if a.requiresGrad {
			addCols(a.ensureGrad(), out.Grad, 0)
		}
		if b.requiresGrad {
			addCols(b.ensureGrad(), out.Grad, a.Value.Cols)
		}
	}, a, b)
	return out
}

// ConcatRows records c = a stacked on b.
func (t *Tape) ConcatRows(a, b *Node) *Node {
	v := t.buf(a.Value.Rows+b.Value.Rows, a.Value.Cols, false)
	tensor.ConcatRowsInto(v, a.Value, b.Value)
	var out *Node
	out = t.op(v, func() {
		g := out.Grad
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := range ga.Data {
				ga.Data[i] += g.Data[i]
			}
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			off := len(a.Value.Data)
			for i := range gb.Data {
				gb.Data[i] += g.Data[off+i]
			}
		}
	}, a, b)
	return out
}

// SliceCols records c = a[:, from:to].
func (t *Tape) SliceCols(a *Node, from, to int) *Node {
	if from < 0 || to > a.Value.Cols || from > to {
		panic(fmt.Sprintf("autodiff: sliceCols [%d,%d) of %d cols", from, to, a.Value.Cols))
	}
	v := t.buf(a.Value.Rows, to-from, false)
	tensor.SliceColsInto(v, a.Value, from)
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < v.Rows; i++ {
			src := out.Grad.Row(i)
			dst := g.Row(i)[from:to]
			for j, gv := range src {
				dst[j] += gv
			}
		}
	}, a)
	return out
}

// SelectRows records c = a[idx, :] (gather); the backward pass scatters.
func (t *Tape) SelectRows(a *Node, idx []int) *Node {
	v := t.buf(len(idx), a.Value.Cols, false)
	tensor.SelectRowsInto(v, a.Value, idx)
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, r := range idx {
			dst := g.Row(r)
			src := out.Grad.Row(i)
			for j, gv := range src {
				dst[j] += gv
			}
		}
	}, a)
	return out
}

// SumRows records the N×1 column of row sums.
func (t *Tape) SumRows(a *Node) *Node {
	v := t.buf(a.Value.Rows, 1, false)
	tensor.SumRowsInto(v, a.Value)
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < a.Value.Rows; i++ {
			gi := out.Grad.Data[i]
			row := g.Row(i)
			for j := range row {
				row[j] += gi
			}
		}
	}, a)
	return out
}

// SumAll records the scalar sum of all elements.
func (t *Tape) SumAll(a *Node) *Node {
	v := t.buf(1, 1, false)
	v.Data[0] = a.Value.Sum()
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		gv := out.Grad.Data[0]
		for i := range g.Data {
			g.Data[i] += gv
		}
	}, a)
	return out
}

// MeanAll records the scalar mean of all elements.
func (t *Tape) MeanAll(a *Node) *Node {
	n := float64(len(a.Value.Data))
	if n == 0 {
		return t.Const(t.buf(1, 1, true))
	}
	return t.Scale(t.SumAll(a), 1/n)
}

// Dropout records inverted dropout with keep-probability 1−rate. When
// rng is nil or rate <= 0 the input node is returned unchanged.
func (t *Tape) Dropout(a *Node, rate float64, rng *tensor.RNG) *Node {
	if rng == nil || rate <= 0 {
		return a
	}
	mask := t.buf(a.Value.Rows, a.Value.Cols, true)
	scale := 1 / (1 - rate)
	for i := range mask.Data {
		if rng.Float64() >= rate {
			mask.Data[i] = scale
		}
	}
	return t.Mul(a, t.Const(mask))
}

// BCEWithLogits records the mean binary cross-entropy between logits
// (N×1) and labels (length N, values in {0,1}), computed in a numerically
// stable fused form: loss = mean(max(z,0) − z·y + log(1+e^{−|z|})).
func (t *Tape) BCEWithLogits(logits *Node, labels []float64) *Node {
	return t.WeightedBCEWithLogits(logits, labels, nil)
}

// WeightedBCEWithLogits is BCEWithLogits with optional per-example
// weights (nil means uniform). The loss is the weighted mean.
func (t *Tape) WeightedBCEWithLogits(logits *Node, labels, weights []float64) *Node {
	n := logits.Value.Rows
	if logits.Value.Cols != 1 || len(labels) != n {
		panic("autodiff: BCEWithLogits wants N×1 logits and N labels")
	}
	var wsum float64
	w := func(i int) float64 { return 1 }
	if weights != nil {
		if len(weights) != n {
			panic("autodiff: weights length mismatch")
		}
		w = func(i int) float64 { return weights[i] }
		for _, wi := range weights {
			wsum += wi
		}
	} else {
		wsum = float64(n)
	}
	if wsum == 0 {
		wsum = 1
	}
	v := t.buf(1, 1, true)
	for i := 0; i < n; i++ {
		z := logits.Value.Data[i]
		y := labels[i]
		loss := math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		v.Data[0] += w(i) * loss
	}
	v.Data[0] /= wsum
	var out *Node
	out = t.op(v, func() {
		if !logits.requiresGrad {
			return
		}
		g := logits.ensureGrad()
		gs := out.Grad.Data[0] / wsum
		for i := 0; i < n; i++ {
			z := logits.Value.Data[i]
			g.Data[i] += gs * w(i) * (tensor.SigmoidScalar(z) - labels[i])
		}
	}, logits)
	return out
}
