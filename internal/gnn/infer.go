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
// value-only semantics: every intermediate comes from the shape-keyed
// tensor pool and is returned wholesale by ReleaseFwd, so a warmed-up
// audit allocates almost nothing.
//
// Equivalence contract: each Fwd kernel runs the *same* arithmetic as
// its tape counterpart — the same MatMul kernel on a zeroed destination,
// the same parallel row partition (work estimates are identical), the
// same elementwise formulas, the same accumulation order. Scores from
// Infer therefore match the tape forward bitwise; the infer tests pin
// this to ≤1e-12.

// Fwd is a tape-free forward context. It keeps its scratch matrices
// warm across Acquire/Release cycles: a model requests the same sequence
// of widths on every run, so a cursor into the retained list satisfies
// warm Gets with a capacity compare and a memclr — no pool round trip.
// A Fwd is single-goroutine; concurrent inference uses one Fwd each.
type Fwd struct {
	mats []*tensor.Matrix
	used int
	cone Cone
	hs   []*tensor.Matrix // one block per stack, handed to a Spec's readout
	cols []int            // a star's attention segment
	// serial runs the dense kernels on the calling goroutine: set while a
	// sweep step computes one shard of the rows, since the other shards'
	// workers already occupy the remaining cores.
	serial bool
}

// maxFwdMats caps how many warm matrices a pooled Fwd retains.
const maxFwdMats = 256

var fwdPool = sync.Pool{New: func() any { return new(Fwd) }}

// AcquireFwd returns a forward context from the pool. Pair with
// ReleaseFwd.
func AcquireFwd() *Fwd { return fwdPool.Get().(*Fwd) }

// ReleaseFwd recycles the context with its scratch kept warm. All
// matrices obtained from f — including Infer results — are invalid
// afterwards.
func ReleaseFwd(f *Fwd) {
	if len(f.mats) > maxFwdMats {
		for i := maxFwdMats; i < len(f.mats); i++ {
			tensor.PutMatrix(f.mats[i])
			f.mats[i] = nil
		}
		f.mats = f.mats[:maxFwdMats]
	}
	f.used = 0
	fwdPool.Put(f)
}

// Get returns a zeroed rows×cols scratch matrix owned by f. A warm slot
// is reshaped in place: the row count follows the sample and the cone,
// so it differs from audit to audit while the capacity it needs does not.
func (f *Fwd) Get(rows, cols int) *tensor.Matrix {
	if f.used < len(f.mats) {
		m := f.mats[f.used].Reshape(rows, cols)
		f.used++
		return m
	}
	m := tensor.GetMatrix(rows, cols)
	f.mats = append(f.mats, m)
	f.used++
	return m
}

// MatMul computes a × b into scratch (same kernel as the tape MatMul).
func (f *Fwd) MatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := f.Get(a.Rows, b.Cols)
	if f.serial {
		tensor.MatMulRangeInto(out, a, b, 0, a.Rows)
	} else {
		tensor.MatMulInto(out, a, b)
	}
	return out
}

// MatMulSplit computes [a1 | a2] × b into scratch without materializing
// the concatenation (tensor.MatMulSplitInto).
func (f *Fwd) MatMulSplit(a1, a2, b *tensor.Matrix) *tensor.Matrix {
	out := f.Get(a1.Rows, b.Cols)
	if f.serial {
		tensor.MatMulSplitRangeInto(out, a1, a2, b, 0, a1.Rows)
	} else {
		tensor.MatMulSplitInto(out, a1, a2, b)
	}
	return out
}

// Linear applies y = xW + b into scratch, mirroring nn.Linear.Forward.
func (f *Fwd) Linear(l *nn.Linear, x *tensor.Matrix) *tensor.Matrix {
	return f.MatMul(x, l.W.Value).AddRowVectorInPlace(l.B.Value)
}

// MLP runs an MLP forward into scratch, mirroring nn.MLP.Forward.
func (f *Fwd) MLP(m *nn.MLP, x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i, l := range m.Layers {
		h = f.Linear(l, h)
		if i+1 < len(m.Layers) {
			h = m.Hidden.ApplyInPlace(h)
		}
	}
	return h
}

// ConcatCols writes [a ; b] side by side into scratch.
func (f *Fwd) ConcatCols(a, b *tensor.Matrix) *tensor.Matrix {
	out := f.Get(a.Rows, a.Cols+b.Cols)
	tensor.ConcatColsInto(out, a, b)
	return out
}

// SelectRows gathers rows idx of m into scratch.
func (f *Fwd) SelectRows(m *tensor.Matrix, idx []int) *tensor.Matrix {
	out := f.Get(len(idx), m.Cols)
	tensor.SelectRowsInto(out, m, idx)
	return out
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

// ConeForward runs stack st for one node of x over the aggregation a,
// computing at each layer only the rows the node's logit depends on, and
// returns the last layer's 1-row output. Layer l's self rows and their
// aggregated neighbourhoods are both in cone order and go through the
// stack's usual kernels; every kernel is row-independent, so the result
// is bitwise the row the full forward computes. An attention stack's
// cone is one hop deeper: layer l projects every source its rows read,
// the rows within L−l in-hops, so layer 0 projects the gathered cone
// rather than reading x in place.
func (f *Fwd) ConeForward(st *Stack, a *autodiff.CSR, x *tensor.Matrix, node int) *tensor.Matrix {
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
		var hN *tensor.Matrix
		switch {
		case st.Project != nil:
			hN = f.aggregateRows(st, l, a, st.Project(f, l, h), rows, c.pos)
		case l == 0:
			hN = f.aggregateRows(st, l, a, x, rows, nil)
		default:
			hN = f.aggregateRows(st, l, a, h, rows, c.pos)
		}
		if len(rows) < h.Rows {
			h = h.RowsView(0, len(rows))
		}
		h = st.Layer(f, l, h, hN)
	}
	return h
}

// aggregateRows computes the given rows of stack st's layer-l
// aggregation over src into len(rows)×width scratch, each row with the
// per-row arithmetic of the full forward. src holds node j in row j, or
// in row pos[j] when pos is given.
func (f *Fwd) aggregateRows(st *Stack, l int, a *autodiff.CSR, src *tensor.Matrix, rows, pos []int) *tensor.Matrix {
	out := f.Get(len(rows), st.aggWidth(l, src))
	for k, i := range rows {
		st.aggregateRow(out.Row(k), a, i, src, pos)
	}
	return out
}

// aggregateRange computes rows [lo, hi) of stack st's layer-l
// aggregation over the full-height src into (hi−lo)×width scratch, row
// by row, so any partition of the rows reproduces the full product
// bitwise.
func (f *Fwd) aggregateRange(st *Stack, l int, a *autodiff.CSR, src *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := f.Get(hi-lo, st.aggWidth(l, src))
	rows := func(r0, r1 int) {
		for k := r0; k < r1; k++ {
			st.aggregateRow(out.Row(k), a, lo+k, src, nil)
		}
	}
	if f.serial {
		rows(0, hi-lo)
	} else {
		tensor.ParallelRows(hi-lo, (a.RowPtr[hi]-a.RowPtr[lo])*src.Cols, rows)
	}
	return out
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

// attendStar is attendRow on the target's star: z projects the gathered
// block, whose row 0 is the target and whose edges name their sources'
// rows, and the segment lists the in-edges, then the self-loop when the
// stack's matrix has one — buildCSR's entry order.
func (f *Fwd) attendStar(st *Stack, l int, z *tensor.Matrix, edges []StarEdge, selfLoop bool) *tensor.Matrix {
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
func (f *Fwd) stackRows(n int) []*tensor.Matrix {
	f.hs = slices.Grow(f.hs[:0], n)[:n]
	return f.hs
}
