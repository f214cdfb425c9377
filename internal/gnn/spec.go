package gnn

import (
	"fmt"

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
//   - a row range (the sweep steps, and Infer as the range [0, n)): each
//     step aggregates the range's neighbourhoods from the previous
//     layer's full-height output and applies the layer to the range;
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
	// every row independently and write neither h nor hN: in a sweep, h
	// is a view into a buffer other workers are reading.
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

// Infer is the row-range forward over every row.
func (s *Spec[F]) Infer(f *Fwd[F], b *Batch) *tensor.Mat[F] {
	hs := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		op := operandFor[F](b, st.Agg)
		h := inputFor[F](b)
		for l := 0; l < st.layers(); l++ {
			src := h
			if st.Project != nil {
				src = st.Project(f, l, h)
			}
			h = st.Layer(f, l, h, f.aggregateRange(st, l, op, src, 0, b.NumNodes))
		}
		hs[i] = h
	}
	return s.Readout(f, hs)
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
// The float64 instantiation is the bitwise reference that the sweep and
// the embedding tier also run; the float32 one serves audits under
// ValidateF32's gate. A Specs whose F32 has no stacks has no float32
// path (CanInfer32).
type Specs struct {
	F64 Spec[float64]
	F32 Spec[float32]
}

func (s *Specs) specs() *Specs { return s }

// Infer implements Model: the float64 forward over every row.
func (s *Specs) Infer(f *Fwd[float64], b *Batch) *tensor.Matrix { return s.F64.Infer(f, b) }

// InferTarget implements Model on the target's float64 cone.
func (s *Specs) InferTarget(f *Fwd[float64], b *Batch, node int) float64 {
	return s.F64.InferTarget(f, b, node)
}

// Infer32 implements Model: the float32 forward over every row.
func (s *Specs) Infer32(f *Fwd[float32], b *Batch) *tensor.Matrix32 { return s.F32.Infer(f, b) }

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

// BuildSweep implements Model.
func (s *Specs) BuildSweep(b *Batch) *SweepProgram { return s.BuildEmbedSweep(b, nil) }

// BuildEmbedSweep implements Model: one step per stack and layer
// that runs the layer on the step's row range, then the readout step. An
// attention layer first gets a projection step: its aggregation reads
// the projected rows of any source, so they must all be final. Stacks
// compile one after another, so a stack's layer buffers are recycled by
// the next stack's. Only the layer outputs and projections are full
// height; each step's intermediates live in the worker's Fwd. With
// capture, the first step of a stack's last layer copies its input rows
// into capture[s] — the prior step's barrier has already finalized them.
func (s *Specs) BuildEmbedSweep(b *Batch, capture []*tensor.Matrix) *SweepProgram {
	n := b.NumNodes
	p := newSweepProgram(n)
	hs := make([]*tensor.Matrix, len(s.F64.Stacks))
	for i := range s.F64.Stacks {
		st := &s.F64.Stacks[i]
		op := operandFor[float64](b, st.Agg)
		h := b.X
		for l := 0; l < st.layers(); l++ {
			in, out := h, p.alloc(n, st.Widths[l+1])
			var cp *tensor.Matrix
			if capture != nil && l == st.layers()-1 {
				cp = capture[i]
			}
			src := in
			if st.Project != nil {
				z := p.alloc(n, st.Widths[l+1]+2*st.Heads)
				p.rowStep(fmt.Sprintf("s%d.l%d.proj", i, l), func(f *Fwd[float64], lo, hi int) {
					if cp != nil {
						copyRows(cp, in, lo, hi)
					}
					putRows(z, lo, st.Project(f, l, in.RowsView(lo, hi)))
				})
				src = z
			}
			p.rowStep(fmt.Sprintf("s%d.l%d", i, l), func(f *Fwd[float64], lo, hi int) {
				if cp != nil && st.Project == nil {
					copyRows(cp, in, lo, hi)
				}
				putRows(out, lo, st.Layer(f, l, in.RowsView(lo, hi), f.aggregateRange(st, l, op, src, lo, hi)))
			})
			if src != in {
				p.retire(src)
			}
			if in != b.X {
				p.retire(in)
			}
			h = out
		}
		hs[i] = h
	}
	p.appendReadout(s.F64.Readout, hs, b.X)
	return p
}
