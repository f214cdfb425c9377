package gnn

import (
	"math"
	"slices"
	"sync"

	"turbo/internal/autodiff"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// This file is the tape-free inference engine. Training needs the
// autodiff tape — gradient buffers, backward closures, one Node per op —
// but serving only needs logits, and on the audit hot path the tape is
// pure overhead. Fwd provides the same kernels as the tape ops with
// value-only semantics: every intermediate comes from the tensor pool
// and is returned wholesale by ReleaseFwd, so a warmed-up audit
// allocates almost nothing.
//
// Fwd is generic in the precision F, and every model writes its forward
// once against it (see spec.go). Its methods are either the same
// arithmetic at both precisions or a named primitive with one body per
// precision behind a single type switch per call: the dense products
// (tensor.MulInto), the weights (Value: the float64 parameter or its
// cached float32 quantization), the aggregation rows (aggregate), the
// row combine AddScaledRows, and GAT's projection (gatProject).
//
// Equivalence contract: at float64 each Fwd kernel runs the *same*
// arithmetic as its tape counterpart — the same MatMul kernel on a
// zeroed destination, the same elementwise formulas, the same
// accumulation order — so Infer matches the tape forward bitwise. At
// float32 the kernels are the quantized serving set, held to the
// float64 logits by an explicit tolerance (ValidateF32).

// Fwd is a tape-free forward context at precision F. It keeps its
// scratch matrices warm across Acquire/Release cycles: a model requests
// the same sequence of widths on every run, so a cursor into the
// retained list satisfies warm Gets with a capacity compare and a memclr
// — no pool round trip. A Fwd is single-goroutine; concurrent inference
// uses one Fwd each.
type Fwd[F tensor.Float] struct {
	mats []*tensor.Mat[F]
	used int
	cone Cone
	hs   []*tensor.Mat[F] // one block per stack, handed to a Spec's readout
	cols []int            // a star's attention segment
	agg  aggScratch
	// serial runs the dense kernels on the calling goroutine: set while
	// Infer computes one range of a step's rows, since the other ranges
	// already occupy the remaining cores (forRows).
	serial bool
}

// maxFwdMats caps how many warm matrices a pooled Fwd retains.
const maxFwdMats = 256

var fwdPools = [2]sync.Pool{
	{New: func() any { return new(Fwd[float64]) }},
	{New: func() any { return new(Fwd[float32]) }},
}

// fwdPool returns the pool of F's contexts.
func fwdPool[F tensor.Float]() *sync.Pool {
	if _, ok := any((*Fwd[F])(nil)).(*Fwd[float32]); ok {
		return &fwdPools[1]
	}
	return &fwdPools[0]
}

// AcquireFwd returns a forward context at precision F from the pool.
// Pair with ReleaseFwd.
func AcquireFwd[F tensor.Float]() *Fwd[F] { return fwdPool[F]().Get().(*Fwd[F]) }

// ReleaseFwd recycles the context with its scratch kept warm. All
// matrices obtained from f — including Infer results — are invalid
// afterwards.
func ReleaseFwd[F tensor.Float](f *Fwd[F]) {
	if len(f.mats) > maxFwdMats {
		for i := maxFwdMats; i < len(f.mats); i++ {
			tensor.PutMat(f.mats[i])
			f.mats[i] = nil
		}
		f.mats = f.mats[:maxFwdMats]
	}
	f.used = 0
	fwdPool[F]().Put(f)
}

// Get returns a zeroed rows×cols scratch matrix owned by f. A warm slot
// is reshaped in place: the row count follows the sample and the cone,
// so it differs from audit to audit while the capacity it needs does not.
func (f *Fwd[F]) Get(rows, cols int) *tensor.Mat[F] {
	if f.used < len(f.mats) {
		m := f.mats[f.used].Reshape(rows, cols)
		f.used++
		return m
	}
	m := tensor.GetMat[F](rows, cols)
	f.mats = append(f.mats, m)
	f.used++
	return m
}

// Value returns p's weights at precision F: Value itself, or its cached
// float32 quantization (nn.Parameter.Value32).
func (f *Fwd[F]) Value(p *nn.Parameter) *tensor.Mat[F] {
	if v, ok := any(p.Value).(*tensor.Mat[F]); ok {
		return v
	}
	return any(p.Value32()).(*tensor.Mat[F])
}

// MatMul computes a × b into scratch (same kernel as the tape MatMul).
func (f *Fwd[F]) MatMul(a, b *tensor.Mat[F]) *tensor.Mat[F] {
	out := f.Get(a.Rows, b.Cols)
	tensor.MulInto(out, a, b, f.serial)
	return out
}

// MatMulSplit computes [a1 | a2] × b into scratch without materializing
// the concatenation (tensor.MulSplitInto).
func (f *Fwd[F]) MatMulSplit(a1, a2, b *tensor.Mat[F]) *tensor.Mat[F] {
	out := f.Get(a1.Rows, b.Cols)
	tensor.MulSplitInto(out, a1, a2, b, f.serial)
	return out
}

// Linear applies y = xW + b into scratch, mirroring nn.Linear.Forward.
func (f *Fwd[F]) Linear(l *nn.Linear, x *tensor.Mat[F]) *tensor.Mat[F] {
	return f.MatMul(x, f.Value(l.W)).AddRowVectorInPlace(f.Value(l.B))
}

// MLP runs an MLP forward into scratch, mirroring nn.MLP.Forward.
func (f *Fwd[F]) MLP(m *nn.MLP, x *tensor.Mat[F]) *tensor.Mat[F] {
	h := x
	for i, l := range m.Layers {
		h = f.Linear(l, h)
		if i+1 < len(m.Layers) {
			h = nn.Activate(m.Hidden, h)
		}
	}
	return h
}

// ConcatCols writes [a ; b] side by side into scratch.
func (f *Fwd[F]) ConcatCols(a, b *tensor.Mat[F]) *tensor.Mat[F] {
	out := f.Get(a.Rows, a.Cols+b.Cols)
	tensor.ConcatColsInto(out, a, b)
	return out
}

// SelectRows gathers rows idx of m into scratch.
func (f *Fwd[F]) SelectRows(m *tensor.Mat[F], idx []int) *tensor.Mat[F] {
	out := f.Get(len(idx), m.Cols)
	tensor.SelectRowsInto(out, m, idx)
	return out
}

// ScaleRows scales row i of m by alpha[i, col] in place and returns m:
// the tape's MulColVector(m, SliceCols(alpha, col, col+1)) without the
// slice. A product rounds once at either precision, so the float32
// vector kernel (tensor.Scale32) is the same arithmetic.
func (f *Fwd[F]) ScaleRows(m, alpha *tensor.Mat[F], col int) *tensor.Mat[F] {
	if m32, ok := any(m).(*tensor.Matrix32); ok {
		a32 := any(alpha).(*tensor.Matrix32)
		for i := 0; i < m32.Rows; i++ {
			tensor.Scale32(m32.Row(i), a32.At(i, col))
		}
		return m
	}
	for i := 0; i < m.Rows; i++ {
		s := alpha.At(i, col)
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
	return m
}

// AddScaledRows adds alpha[i, col]·src row i into dst row i and returns
// dst, consuming src as scratch. At float64 it is the tape's
// Add(dst, MulColVector(src, α)): src is scaled in place, then added, two
// roundings per element. At float32 it is one FMA axpy per row
// (tensor.Axpy32), which rounds once: the deliberate float32 difference
// SAO's gate combine and CFO's fusion share.
func (f *Fwd[F]) AddScaledRows(dst, src, alpha *tensor.Mat[F], col int) *tensor.Mat[F] {
	if d32, ok := any(dst).(*tensor.Matrix32); ok {
		s32, a32 := any(src).(*tensor.Matrix32), any(alpha).(*tensor.Matrix32)
		for i := 0; i < d32.Rows; i++ {
			tensor.Axpy32(d32.Row(i), s32.Row(i), a32.At(i, col))
		}
		return dst
	}
	return dst.AddInPlace(f.ScaleRows(src, alpha, col))
}

// --- the computation cone ---------------------------------------------------

// Cone is a target's computation cone on one aggregation matrix A
// (out = A·H, so the columns of row i are i's in-neighbors): the rows
// within some number of in-hops of the target, in breadth-first order —
// the target, then its in-neighbors in entry order, then theirs. Layer ℓ
// of an L-layer forward feeds the target's logit only through the rows
// within L−ℓ in-hops, and those are a prefix of the order, so each
// layer's output is a dense block whose leading rows are the next
// layer's self input.
//
// The cone is read off the matrix the layer aggregates with, never off
// Subgraph.Hops: that is a sampling label, and a node the sampler
// reached at hop 2 can still be adjacent to the target.
type Cone struct {
	order []int // cone rows by ascending in-hop distance; order[0] is the target
	upto  []int // upto[d] = number of rows within d in-hops
	pos   []int // node → index in order, −1 outside the cone
}

// build resets c to the rows of a within hops in-hops of node.
func (c *Cone) build(a *autodiff.CSR, node, hops int) {
	c.pos = slices.Grow(c.pos[:0], a.NRows)[:a.NRows]
	for i := range c.pos {
		c.pos[i] = -1
	}
	c.pos[node] = 0
	c.order = append(c.order[:0], node)
	c.upto = append(c.upto[:0], 1)
	for d, lo := 1, 0; d <= hops; d++ {
		hi := len(c.order)
		for _, i := range c.order[lo:hi] {
			for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				if c.pos[j] < 0 {
					c.pos[j] = len(c.order)
					c.order = append(c.order, j)
				}
			}
		}
		lo = hi
		c.upto = append(c.upto, len(c.order))
	}
}

// Rows returns the rows within d in-hops of the target, the target
// first.
func (c *Cone) Rows(d int) []int { return c.order[:c.upto[d]] }

// NewCone returns the cone of node on a, hops in-hops deep.
func NewCone(a *autodiff.CSR, node, hops int) *Cone {
	c := new(Cone)
	c.build(a, node, hops)
	return c
}

// ConeForward runs stack st for one node of b over its aggregation
// matrix, computing at each layer only the rows the node's logit depends
// on, and returns the last layer's 1-row output. Layer l's self rows and
// their aggregated neighbourhoods are both in cone order and go through
// the stack's usual kernels; every kernel is row-independent, so the
// result is bitwise the row the full forward computes. An attention
// stack's cone is one hop deeper: layer l projects every source its rows
// read, the rows within L−l in-hops, so layer 0 projects the gathered
// cone rather than reading x in place.
func (f *Fwd[F]) ConeForward(st *Stack[F], b *Batch, node int) *tensor.Mat[F] {
	op, x := operandFor[F](b, st.Agg), inputFor[F](b)
	layers := st.layers()
	depth := layers - 1
	if st.Project != nil {
		depth = layers
	}
	c := &f.cone
	c.build(op.a, node, depth)
	h := f.SelectRows(x, c.Rows(depth))
	for l := 0; l < layers; l++ {
		rows := c.Rows(layers - 1 - l)
		var hN *tensor.Mat[F]
		switch {
		case st.Project != nil:
			hN = f.aggregateRows(st, l, op, st.Project(f, l, h), rows, c.pos)
		case l == 0:
			hN = f.aggregateRows(st, l, op, x, rows, nil)
		default:
			hN = f.aggregateRows(st, l, op, h, rows, c.pos)
		}
		if len(rows) < h.Rows {
			h = h.RowsView(0, len(rows))
		}
		h = st.Layer(f, l, h, hN)
	}
	return h
}

// operand is the aggregation matrix a stack reads, in the form each
// precision's row kernel takes: the float64 CSR, which also fixes the
// cone, and at float32 its mirror (Batch.CSR32For).
type operand struct {
	a *autodiff.CSR
	q *tensor.CSR32
}

// operandFor returns b's matrix for agg at precision F.
func operandFor[F tensor.Float](b *Batch, agg Agg) operand {
	op := operand{a: b.CSR(agg)}
	if _, ok := any((*F)(nil)).(*float32); ok {
		op.q = b.CSR32For(op.a)
	}
	return op
}

// inputFor returns b's features at precision F: X, or X32.
func inputFor[F tensor.Float](b *Batch) *tensor.Mat[F] {
	if x, ok := any(b.X).(*tensor.Mat[F]); ok {
		return x
	}
	return any(b.X32()).(*tensor.Mat[F])
}

// aggregateRows computes the given rows of stack st's layer-l
// aggregation over src into len(rows)×width scratch, each row with the
// per-row arithmetic of the full forward. src holds node j in row j, or
// in row pos[j] when pos is given.
func (f *Fwd[F]) aggregateRows(st *Stack[F], l int, op operand, src *tensor.Mat[F], rows, pos []int) *tensor.Mat[F] {
	out := f.Get(len(rows), st.aggWidth(l, src))
	aggregate(out, st.heads(), op, src, rows, pos, 0, &f.agg)
	return out
}

// aggregateRange computes rows [lo, hi) of stack st's layer-l
// aggregation over the full-height src into (hi−lo)×width scratch, row
// by row, so any partition of the rows reproduces the full product
// bitwise. Infer calls it on one range of a step, on the range's own
// goroutine.
func (f *Fwd[F]) aggregateRange(st *Stack[F], l int, op operand, src *tensor.Mat[F], lo, hi int) *tensor.Mat[F] {
	out := f.Get(hi-lo, st.aggWidth(l, src))
	aggregate(out, st.heads(), op, src, nil, nil, lo, &f.agg)
	return out
}

// aggScratch is what a float32 aggregation row needs besides its
// operands: the row's columns mapped to cone positions, and one
// attention segment's scores, then weights.
type aggScratch struct {
	cols  []int32
	alpha []float32
}

// aggregate writes rows of an aggregation into out, its row k for
// destination rows[k], or lo+k when rows is nil: A's weights applied to
// src, or, with heads > 0, attention over src, the layer input's
// projection. src holds node j in row j, or in row pos[j] when pos is
// given. It is the aggregation's one precision dispatch: the float64
// rows run CSRRowInto or attendRow, the float32 rows CSRRow32Into or
// attendRow32 over op's mirror.
func aggregate[F tensor.Float](out *tensor.Mat[F], heads int, op operand, src *tensor.Mat[F], rows, pos []int, lo int, s *aggScratch) {
	dst := func(k int) int {
		if rows != nil {
			return rows[k]
		}
		return lo + k
	}
	switch out := any(out).(type) {
	case *tensor.Matrix:
		src, a := any(src).(*tensor.Matrix), op.a
		for k := range out.Rows {
			i := dst(k)
			c0, c1 := a.RowPtr[i], a.RowPtr[i+1]
			if heads == 0 {
				tensor.CSRRowInto(out.Row(k), a.ColIdx[c0:c1], a.Weights[c0:c1], src, pos)
				continue
			}
			self := i
			if pos != nil {
				self = pos[i]
			}
			attendRow(out.Row(k), src, heads, self, a.ColIdx[c0:c1], pos)
		}
	case *tensor.Matrix32:
		src, a := any(src).(*tensor.Matrix32), op.q
		for k := range out.Rows {
			i := dst(k)
			c0, c1 := a.RowPtr[i], a.RowPtr[i+1]
			cols, self := a.ColIdx[c0:c1], i
			if pos != nil {
				s.cols = s.cols[:0]
				for _, j := range cols {
					s.cols = append(s.cols, int32(pos[j]))
				}
				cols, self = s.cols, pos[i]
			}
			if heads == 0 {
				tensor.CSRRow32Into(out.Row(k), cols, a.Weights[c0:c1], src, 0)
				continue
			}
			s.alpha = slices.Grow(s.alpha[:0], len(cols))[:len(cols)]
			attendRow32(out.Row(k), src, heads, self, cols, s.alpha)
		}
	}
}

// attendRow accumulates one destination row of an attention aggregation
// into the zeroed drow with the arithmetic of GAT's tape forward: per
// head k, each in-edge scores LeakyReLU(source's head-k source score +
// destination's head-k destination score), a max-shifted softmax runs
// over the segment, and the α-weighted head-k features of the sources
// sum into drow's head-k block. z is the layer input's projection (see
// Stack.Project); the destination is z's row self and the segment's
// sources are z's rows cols, in entry order — or pos[cols[p]] when pos
// is given. α is recomputed per pass instead of stored: exp is
// deterministic, so the third pass multiplies by the very α the tape's
// SegmentSoftmax produces, and no scratch is shared between rows.
func attendRow(drow []float64, z *tensor.Matrix, heads, self int, cols, pos []int) {
	d := len(drow) / heads
	src := func(p int) []float64 {
		if pos != nil {
			return z.Row(pos[cols[p]])
		}
		return z.Row(cols[p])
	}
	for k := 0; k < heads; k++ {
		sc := len(drow) + 2*k
		sd := z.At(self, sc+1)
		score := func(p int) float64 {
			s := src(p)[sc] + sd
			if s <= 0 {
				s *= 0.2 // LeakyReLU, the tape's slope
			}
			return s
		}
		mx := math.Inf(-1)
		for p := range cols {
			if s := score(p); s > mx {
				mx = s
			}
		}
		var sum float64
		for p := range cols {
			sum += math.Exp(score(p) - mx)
		}
		out := drow[k*d : (k+1)*d]
		for p := range cols {
			w := math.Exp(score(p) - mx)
			if sum != 0 {
				w /= sum
			}
			for c, v := range src(p)[k*d : (k+1)*d] {
				out[c] += w * v
			}
		}
	}
}

// attendRow32 is the float32 attendRow. Each head's segment stores its
// LeakyReLU scores in alpha (len(cols) long), shifts them by the
// segment's own maximum and exponentiates them in one vectorized pass
// over the segment alone (tensor.Exp32InPlace), so a row's weights do not
// depend on which other rows are computed with it — the cone and the
// full forward agree bitwise. The α-weighted sum runs through the CSR
// row kernel over the head's column block of z.
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

// attendStar is attendRow on the target's star: z projects the gathered
// block, whose row 0 is the target and whose edges name their sources'
// rows, and the segment lists the in-edges, then the self-loop when the
// stack's matrix has one — buildCSR's entry order.
func attendStar(f *Fwd[float64], st *Stack[float64], l int, z *tensor.Matrix, edges []StarEdge, selfLoop bool) *tensor.Matrix {
	f.cols = f.cols[:0]
	for _, e := range edges {
		f.cols = append(f.cols, int(e.Row))
	}
	if selfLoop {
		f.cols = append(f.cols, 0)
	}
	out := f.Get(1, st.Widths[l+1])
	attendRow(out.Row(0), z, st.Heads, 0, f.cols, nil)
	return out
}

// stackRows returns f's one-block-per-stack slice, resized to n.
func (f *Fwd[F]) stackRows(n int) []*tensor.Mat[F] {
	f.hs = slices.Grow(f.hs[:0], n)[:n]
	return f.hs
}
