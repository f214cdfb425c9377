package gnn

import (
	"slices"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// spec.go is where a message-passing model describes its evaluation-mode
// forward once, and where the three forwards that run that description
// live. The description is generic in the precision F: a variant writes
// it as one function returning a Spec[F] and its constructor calls that
// function at float64 and at float32 (see Specs). A description is a set of stacks — message-passing streams, each
// a sequence of layers over one aggregation matrix — and a readout over
// the stacks' final rows. A stack aggregates either by the matrix's fixed
// weights or, when it has a Project, by edge attention over the matrix's
// sparsity pattern (GAT). Every layer, projection and readout is
// row-wise: row i of the output depends only on row i of the self input
// and row i of the aggregated neighbourhood. That is what lets one
// definition serve every row set:
//
//   - the target's cone (InferTarget): the rows within L−ℓ in-hops of the
//     target at layer ℓ, via ConeForward;
//   - every row (Infer): each step splits the rows into ranges, and each
//     range aggregates its neighbourhoods from the previous layer's
//     full-height output and applies the layer to itself;
//   - the embedding star (InferFinal): the last layer on the target's
//     aggregation row rebuilt from cached penultimate rows, then the
//     readout.
//
// Since all three call the same Layer and Readout on blocks of rows, and
// the dense kernels are row-independent (tensor.matMulRange's bitwise
// contract), the three agree bitwise with each other and with the tape
// forward on the rows they share.

// Agg names the aggregation matrix a stack reads (Batch.CSR), and with it
// the row of that matrix the embedding tier rebuilds from a serving star.
// Each is dst-indexed (out = A·H means out[dst] = Σ_src A[dst,src]·H[src])
// and row-normalized to sum to 1.
type Agg int

// The merged-graph aggregations. TypedMean(r) names the per-type ones.
const (
	// MergedRW is Eq. 1, the paper's inductive GCN baseline: an
	// unweighted mean over Ñ(v), self-loop included, so nodes inside
	// large cliques retain only a 1/|Ñ| share of themselves — the
	// over-smoothing setting of Theorem 1.
	MergedRW Agg = -1 - iota
	// MergedMean is Eq. 2, GraphSAGE's h_{N_v}: the unweighted neighbour
	// mean without self-loops.
	MergedMean
	// MergedWeightedMean is Eq. 6 collapsed across types, the weighted
	// neighbour mean HAG's CFO(-) ablation aggregates its one SAO stream
	// with.
	MergedWeightedMean
)

// TypedMean is the Eq. 6 aggregation on edge type r's homogeneous
// subgraph (one HAG stream per type). Unlike Eqs. 1–2 it keeps the BN
// edge weights, so HAG exploits the certainty signal of the inverse
// weight assignment and hierarchical windows. It normalizes by the
// weight sum rather than Eq. 6's literal 1/deg(v): the literal form also
// preserves absolute weight magnitude but destabilized training in our
// reduced configuration.
func TypedMean(r int) Agg { return Agg(r) }

// form says how the matrix a names is built: over edge type t, or the
// merged graph when t is graph.AllTypes; whether each row ends with its
// self-loop; whether it ignores the edge weights.
func (a Agg) form() (t int, selfLoop, unweighted bool) {
	switch a {
	case MergedRW:
		return graph.AllTypes, true, true
	case MergedMean:
		return graph.AllTypes, false, true
	case MergedWeightedMean:
		return graph.AllTypes, false, false
	}
	return int(a), false, false
}

// star returns the target's row of the matrix a names, as star's edges:
// the in-edges, whether the row ends with the self-loop, and whether it
// ignores the edge weights (see StarAggRow).
func (a Agg) star(s *EmbedStar) (edges []StarEdge, selfLoop, unweighted bool) {
	t, selfLoop, unweighted := a.form()
	if t == graph.AllTypes {
		return s.Merged, selfLoop, unweighted
	}
	return s.Typed[t], selfLoop, unweighted
}

// Stack is one message-passing stream at precision F.
type Stack[F tensor.Float] struct {
	Agg Agg
	// Widths holds the stream's activation widths: Widths[l] is layer l's
	// input width and Widths[l+1] its output width, so the stream has
	// len(Widths)−1 layers and Widths[len−2] is the width of the
	// penultimate rows the embedding tier captures.
	Widths []int
	// Project, when set, makes the stack aggregate by edge attention with
	// Heads heads: Agg's matrix then fixes only each destination's segment
	// (its sources, in entry order), not the weights. Project maps a block
	// of layer l's input rows, row by row, to their transformed rows on
	// f's scratch: Widths[l+1] feature columns, head k's in the block
	// [k·d, (k+1)·d) with d = Widths[l+1]/Heads, then each head's source
	// and destination scores in columns Widths[l+1]+2k and +2k+1; any
	// columns past those are padding attention never reads. The
	// aggregated row is Widths[l+1] wide (see attendRow).
	Heads   int
	Project func(f *Fwd[F], l int, h *tensor.Mat[F]) *tensor.Mat[F]
	// Layer applies layer l to a block of self rows h and their
	// aggregated neighbourhoods hN (row i of hN belongs to row i of h) and
	// returns the block's output rows on f's scratch. It must compute
	// every row independently and write neither h nor hN: in Infer, h is
	// a view into a buffer other row ranges are reading.
	Layer func(f *Fwd[F], l int, h, hN *tensor.Mat[F]) *tensor.Mat[F]
}

func (st *Stack[F]) layers() int { return len(st.Widths) - 1 }

// heads is the attention head count, 0 for a weighted-aggregation stack.
func (st *Stack[F]) heads() int {
	if st.Project == nil {
		return 0
	}
	return st.Heads
}

// aggWidth is the width of layer l's aggregated rows over src.
func (st *Stack[F]) aggWidth(l int, src *tensor.Mat[F]) int {
	if st.Project != nil {
		return st.Widths[l+1]
	}
	return src.Cols
}

// Spec is a model's evaluation-mode forward at precision F: its stacks
// and the readout over their final rows.
type Spec[F tensor.Float] struct {
	Stacks []Stack[F]
	// Readout maps a block of rows — hs[s] holds the rows' final output
	// of stack s — to the block's logits, one column, on f's scratch. Like
	// Layer it is row-wise and writes none of its inputs.
	Readout func(f *Fwd[F], hs []*tensor.Mat[F]) *tensor.Mat[F]
}

// Infer is the full-height forward, the one full-graph pass at either
// precision. Each step — an attention stack's projection, one layer of a
// stack, the readout — runs over every row as one fork-join on the tensor
// pool (forRows), and the join is the barrier the next step needs: its
// aggregation may read any row of its input. Full-height activations come
// from the tensor pool; a layer's input is dead once the layer has read
// it, and the next layer of its width reuses it, so besides each stack's
// final rows at most two layers are live however deep the model is. With
// capture, stack s writes its penultimate rows (the last layer's input)
// into capture[s], NumNodes × that width and the caller's to keep: the
// rows the embedding tier serves from. The logits are f's scratch.
func (s *Spec[F]) Infer(f *Fwd[F], b *Batch, capture []*tensor.Mat[F]) *tensor.Mat[F] {
	n, x := b.NumNodes, inputFor[F](b)
	hs := f.stackRows(len(s.Stacks))
	// A dead buffer serves the next one of its width unzeroed, since
	// every step writes all its rows: each stack reuses the last one's.
	var free []*tensor.Mat[F]
	buf := func(cols int) *tensor.Mat[F] {
		for k, m := range free {
			if m.Cols == cols {
				free = slices.Delete(free, k, k+1)
				return m
			}
		}
		return tensor.GetMat[F](n, cols)
	}
	for i := range s.Stacks {
		st := &s.Stacks[i]
		op := operandFor[F](b, st.Agg)
		var keep *tensor.Mat[F]
		if capture != nil {
			keep = capture[i]
			if st.layers() == 1 {
				copy(keep.Data, x.Data)
			}
		}
		h := x
		for l := 0; l < st.layers(); l++ {
			src, w := h, st.Widths[l+1]
			if st.Project != nil {
				src = buf(w + 2*st.Heads)
				forRows(n, n*h.Cols*src.Cols, func(f *Fwd[F], lo, hi int) {
					putRows(src, lo, st.Project(f, l, h.RowsView(lo, hi)))
				})
			}
			out := keep
			if l != st.layers()-2 || keep == nil {
				out = buf(w)
			}
			aw := st.aggWidth(l, src)
			forRows(n, op.a.NNZ()*aw+n*(h.Cols+aw)*w, func(f *Fwd[F], lo, hi int) {
				putRows(out, lo, st.Layer(f, l, h.RowsView(lo, hi), f.aggregateRange(st, l, op, src, lo, hi)))
			})
			if src != h {
				free = append(free, src)
			}
			if h != x && h != keep {
				free = append(free, h)
			}
			h = out
		}
		hs[i] = h
	}
	logits := f.Get(n, 1)
	width := 0
	for _, h := range hs {
		width += h.Cols
	}
	forRows(n, n*width*width, func(f *Fwd[F], lo, hi int) {
		rows := f.stackRows(len(hs))
		for i, h := range hs {
			rows[i] = h.RowsView(lo, hi)
		}
		putRows(logits, lo, s.Readout(f, rows))
	})
	for _, m := range append(free, hs...) {
		tensor.PutMat(m)
	}
	return logits
}

// forRows runs fn over [0, n) split into contiguous row ranges as one
// fork-join on the tensor pool, each range on its own pooled Fwd whose
// dense kernels stay on its goroutine: the other ranges already occupy
// the remaining cores. Below the pool's threshold for the work estimate
// the whole range runs on the calling goroutine. Ranges start on
// multiples of eight rows, so the float32 kernels' 8-wide lanes, scalar
// tails and 4-row tiles fall on the same elements as in one range, and
// every other kernel is row-independent: the result does not depend on
// the split.
func forRows[F tensor.Float](n, work int, fn func(f *Fwd[F], lo, hi int)) {
	tensor.ParallelRows((n+7)/8, work, func(lo, hi int) {
		f := AcquireFwd[F]()
		f.serial = true
		fn(f, 8*lo, min(8*hi, n))
		f.serial = false
		ReleaseFwd(f)
	})
}

// putRows writes the block into dst's rows starting at lo, each row cut
// to dst's width: a float32 projection's pad columns are never read.
func putRows[F tensor.Float](dst *tensor.Mat[F], lo int, block *tensor.Mat[F]) {
	if block.Cols == dst.Cols {
		copy(dst.Data[lo*dst.Cols:], block.Data)
		return
	}
	for i := 0; i < block.Rows; i++ {
		copy(dst.Row(lo+i), block.Row(i)[:dst.Cols])
	}
}

// InferTarget runs every stack on the target's cone over its own
// aggregation matrix, so a stack in which the target has no in-edges
// costs one row, then the readout on the target row alone.
func (s *Spec[F]) InferTarget(f *Fwd[F], b *Batch, node int) F {
	hs := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		hs[i] = f.ConeForward(&s.Stacks[i], b, node)
	}
	return s.Readout(f, hs).Data[0]
}

// Specs is a model's forward at both precisions: one generic Spec
// definition, instantiated by the model's constructor at float64 and at
// float32. Embedding it gives a model every tape-free method of Model.
// The float64 instantiation is the bitwise reference that the full-graph
// passes and the embedding tier also run; the float32 one serves audits under
// ValidateF32's gate. A Specs whose F32 has no stacks has no float32
// path (CanInfer32).
type Specs struct {
	F64 Spec[float64]
	F32 Spec[float32]
}

func (s *Specs) specs() *Specs { return s }

// Infer implements Model: the float64 forward over every row.
func (s *Specs) Infer(f *Fwd[float64], b *Batch) *tensor.Matrix { return s.F64.Infer(f, b, nil) }

// InferEmbed implements Model: Infer that also writes each stack's
// penultimate rows into capture.
func (s *Specs) InferEmbed(f *Fwd[float64], b *Batch, capture []*tensor.Matrix) *tensor.Matrix {
	return s.F64.Infer(f, b, capture)
}

// InferTarget implements Model on the target's float64 cone.
func (s *Specs) InferTarget(f *Fwd[float64], b *Batch, node int) float64 {
	return s.F64.InferTarget(f, b, node)
}

// Infer32 implements Model: the float32 forward over every row.
func (s *Specs) Infer32(f *Fwd[float32], b *Batch) *tensor.Matrix32 { return s.F32.Infer(f, b, nil) }

// InferTarget32 implements Model on the target's float32 cone.
func (s *Specs) InferTarget32(f *Fwd[float32], b *Batch, node int) float32 {
	return s.F32.InferTarget(f, b, node)
}

// EmbedSpec implements Model: one captured stream per stack.
func (s *Specs) EmbedSpec() (widths []int, hops int) {
	stacks := s.F64.Stacks
	widths = make([]int, len(stacks))
	for i := range stacks {
		widths[i] = stacks[i].Widths[stacks[i].layers()-1]
	}
	return widths, stacks[0].layers()
}

// InferFinal implements Model: each stack's last layer on the
// target's aggregation row over the gathered penultimate block, then the
// readout.
func (s *Specs) InferFinal(f *Fwd[float64], star *EmbedStar, hs []*tensor.Matrix) float64 {
	rows := f.stackRows(len(s.F64.Stacks))
	for i := range s.F64.Stacks {
		st := &s.F64.Stacks[i]
		l := st.layers() - 1
		edges, selfLoop, unweighted := st.Agg.star(star)
		var hN *tensor.Matrix
		if st.Project != nil {
			hN = attendStar(f, st, l, st.Project(f, l, hs[i]), edges, selfLoop)
		} else {
			hN = StarAggRow(f, hs[i], edges, selfLoop, unweighted)
		}
		rows[i] = st.Layer(f, l, hs[i].RowView(0), hN)
	}
	return s.F64.Readout(f, rows).Data[0]
}
