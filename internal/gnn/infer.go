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

// Inferer is a Model that additionally supports the tape-free forward
// path. The returned logits matrix is Fwd scratch: read it before
// releasing the Fwd, and do not retain it.
type Inferer interface {
	Infer(f *Fwd, b *Batch) *tensor.Matrix
}

// CanInfer reports whether a model routes through the tape-free path.
func CanInfer(m Model) bool {
	_, ok := m.(Inferer)
	return ok
}

// TargetInferer is an Inferer that can additionally compute a single
// node's logit without materializing every node's: it runs the node's
// computation cone (see Cone) and nothing else. The rows it does compute
// go through the unchanged per-row kernels, so the logit is bitwise the
// full forward's, and single-target audits are what the serving path
// does.
type TargetInferer interface {
	Inferer
	InferTarget(f *Fwd, b *Batch, node int) float64
}

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

// SegmentSoftmax computes the grouped softmax of an E×1 score vector
// into scratch, with the exact algorithm of the tape op: rows not
// covered by any segment stay zero, and each group divides by its sum.
func (f *Fwd) SegmentSoftmax(a *tensor.Matrix, segments [][]int) *tensor.Matrix {
	if a.Cols != 1 {
		panic("gnn: SegmentSoftmax wants an E×1 score vector")
	}
	v := f.Get(a.Rows, 1)
	for _, seg := range segments {
		mx := math.Inf(-1)
		for _, i := range seg {
			if x := a.Data[i]; x > mx {
				mx = x
			}
		}
		var sum float64
		for _, i := range seg {
			e := math.Exp(a.Data[i] - mx)
			v.Data[i] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		for _, i := range seg {
			v.Data[i] /= sum
		}
	}
	return v
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

// ConeForward runs a layers-deep message-passing stack for one node of
// x over the aggregation a, computing at each layer only the rows the
// node's logit depends on, and returns the last layer's 1-row output.
// layer(l, h, hN) applies layer l to the self rows h and their
// aggregated neighborhoods hN, both in cone order, with the model's
// usual kernels; every kernel is row-independent, so the result is
// bitwise the row the full forward computes.
func (f *Fwd) ConeForward(a *autodiff.CSR, x *tensor.Matrix, node, layers int, layer func(l int, h, hN *tensor.Matrix) *tensor.Matrix) *tensor.Matrix {
	c := &f.cone
	c.build(a, node, layers-1)
	h := f.SelectRows(x, c.Rows(layers-1))
	for l := 0; l < layers; l++ {
		rows := c.Rows(layers - 1 - l)
		var hN *tensor.Matrix
		if l == 0 {
			hN = f.aggregateRows(a, x, rows, nil)
		} else {
			hN = f.aggregateRows(a, h, rows, c.pos)
		}
		if len(rows) < h.Rows {
			h = h.RowsView(0, len(rows))
		}
		h = layer(l, h, hN)
	}
	return h
}

// aggregateRows computes the given rows of A × h into len(rows)×cols
// scratch with the per-row arithmetic of CSR.MatMulInto. h holds node
// j in row j, or in row pos[j] when pos is given.
func (f *Fwd) aggregateRows(a *autodiff.CSR, h *tensor.Matrix, rows, pos []int) *tensor.Matrix {
	out := f.Get(len(rows), h.Cols)
	for k, i := range rows {
		aggregateRow(out.Row(k), a, i, h, pos)
	}
	return out
}

// aggregateRange computes rows [lo, hi) of A × h into (hi−lo)×cols
// scratch, row by row exactly as CSR.MatMulInto, so any partition of the
// rows reproduces the full product bitwise.
func (f *Fwd) aggregateRange(a *autodiff.CSR, h *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := f.Get(hi-lo, h.Cols)
	rows := func(r0, r1 int) {
		for k := r0; k < r1; k++ {
			aggregateRow(out.Row(k), a, lo+k, h, nil)
		}
	}
	if f.serial {
		rows(0, hi-lo)
	} else {
		tensor.ParallelRows(hi-lo, (a.RowPtr[hi]-a.RowPtr[lo])*h.Cols, rows)
	}
	return out
}

// aggregateRow accumulates row i of A × h into the zeroed drow.
func aggregateRow(drow []float64, a *autodiff.CSR, i int, h *tensor.Matrix, pos []int) {
	for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
		j := a.ColIdx[p]
		if pos != nil {
			j = pos[j]
		}
		w := a.Weights[p]
		for c, v := range h.Row(j) {
			drow[c] += w * v
		}
	}
}

// stackRows returns f's one-block-per-stack slice, resized to n.
func (f *Fwd) stackRows(n int) []*tensor.Matrix {
	f.hs = slices.Grow(f.hs[:0], n)[:n]
	return f.hs
}

// --- model Infer implementations -------------------------------------------

// Infer implements Inferer for GAT, with two algebraic shortcuts the
// tape cannot take (it must materialize every intermediate as a node):
//
//   - Attention scores gather from node-level projections: the tape's
//     MatMul(SelectRows(wh, src), attSrc) row e is the dot product of
//     wh row src[e] with attSrc, so computing s = wh×attSrc once (same
//     kernel, same per-row arithmetic) and indexing s[src[e]] yields
//     bitwise-equal scores at n·d instead of E·d multiplies.
//   - Aggregation runs as an α-weighted sparse matmul directly over wh:
//     the scatter formulation adds 1·(α_e·wh[src[e]]) per edge, this one
//     adds α_e·wh[src[e]] at the same positions in the same order —
//     the identical rounding sequence, without the E×d intermediate.
func (m *GAT) Infer(f *Fwd, b *Batch) *tensor.Matrix {
	st := b.gatStruct()
	h := b.X
	n := b.NumNodes
	nE := len(st.src)
	for _, layer := range m.layers {
		var outs *tensor.Matrix
		for _, hd := range layer.heads {
			wh := f.MatMul(h, hd.w.Value)
			sSrc := f.MatMul(wh, hd.attSrc.Value)
			sDst := f.MatMul(wh, hd.attDst.Value)
			score := f.Get(nE, 1)
			for e, s := range st.src {
				score.Data[e] = sSrc.Data[s] + sDst.Data[st.dst[e]]
			}
			alpha := f.SegmentSoftmax(tensor.LeakyReLUInPlace(score, 0.2), st.segments)
			w := f.Get(nE, 1)
			for p, e := range st.scatter.ColIdx {
				w.Data[p] = alpha.Data[e]
			}
			adj := autodiff.CSR{NRows: n, NCols: n, RowPtr: st.scatter.RowPtr, ColIdx: st.nodeCol, Weights: w.Data}
			agg := f.Get(n, wh.Cols)
			adj.MatMulInto(agg, wh)
			if outs == nil {
				outs = agg
			} else {
				outs = f.ConcatCols(outs, agg)
			}
		}
		h = tensor.ReLUInPlace(outs)
	}
	return f.MLP(m.head, h)
}
