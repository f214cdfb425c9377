package gnn

import (
	"fmt"

	"turbo/internal/autodiff"
	"turbo/internal/tensor"
)

// spec.go is where a message-passing model describes its evaluation-mode
// forward once, and where the three forwards that run that description
// live. A description is a set of stacks — message-passing streams, each
// a sequence of layers over one aggregation matrix — and a readout over
// the stacks' final rows. Every layer and the readout are row-wise: row i
// of the output depends only on row i of the self input and row i of the
// aggregated neighbourhood. That is what lets one definition serve every
// row set:
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

// Agg names the aggregation matrix a stack reads, and with it the row of
// that matrix the embedding tier rebuilds from a serving star.
type Agg int

// The merged-graph aggregations. TypedMean(r) names the per-type ones.
const (
	MergedRW           Agg = -1 - iota // Eq. 1: unweighted random walk with self-loops (GCN)
	MergedMean                         // Eq. 2: unweighted neighbour mean (GraphSAGE)
	MergedWeightedMean                 // Eq. 6 collapsed across types (HAG's CFO(-) stream)
)

// TypedMean is the Eq. 6 weighted neighbour mean on edge type r's
// homogeneous subgraph (one HAG stream per type).
func TypedMean(r int) Agg { return Agg(r) }

// csr returns the matrix of b that a names.
func (a Agg) csr(b *Batch) *autodiff.CSR {
	switch a {
	case MergedRW:
		return b.MergedRWCSR()
	case MergedMean:
		return b.MergedMeanCSR()
	case MergedWeightedMean:
		return b.MergedWeightedMeanCSR()
	}
	return b.TypedMeanCSR(int(a))
}

// starRow is the target's row of the matrix a names, applied to the
// gathered embedding block h of star.
func (a Agg) starRow(f *Fwd, h *tensor.Matrix, star *EmbedStar) *tensor.Matrix {
	switch a {
	case MergedRW:
		return StarAggRow(f, h, star.Merged, true, true)
	case MergedMean:
		return StarAggRow(f, h, star.Merged, false, true)
	case MergedWeightedMean:
		return StarAggRow(f, h, star.Merged, false, false)
	}
	return StarAggRow(f, h, star.Typed[a], false, false)
}

// Stack is one float64 message-passing stream.
type Stack struct {
	Agg Agg
	// Widths holds the stream's activation widths: Widths[l] is layer l's
	// input width and Widths[l+1] its output width, so the stream has
	// len(Widths)−1 layers and Widths[len−2] is the width of the
	// penultimate rows the embedding tier captures.
	Widths []int
	// Layer applies layer l to a block of self rows h and their
	// aggregated neighbourhoods hN (row i of hN belongs to row i of h) and
	// returns the block's output rows on f's scratch. It must compute
	// every row independently and write neither h nor hN: in a sweep, h
	// is a view into a buffer other workers are reading.
	Layer func(f *Fwd, l int, h, hN *tensor.Matrix) *tensor.Matrix
}

func (st *Stack) layers() int { return len(st.Widths) - 1 }

// Spec is a model's float64 evaluation-mode forward: its stacks and the
// readout over their final rows. A model embeds its Spec and so gets
// Infer, InferTarget, BuildSweep, EmbedSpec, BuildEmbedSweep and
// InferFinal, all running the one description.
type Spec struct {
	Stacks []Stack
	// Readout maps a block of rows — hs[s] holds the rows' final output
	// of stack s — to the block's logits, one column, on f's scratch. Like
	// Layer it is row-wise and writes none of its inputs.
	Readout func(f *Fwd, hs []*tensor.Matrix) *tensor.Matrix
}

// Infer implements Inferer: the row-range forward over every row.
func (s *Spec) Infer(f *Fwd, b *Batch) *tensor.Matrix {
	hs := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		a := st.Agg.csr(b)
		h := b.X
		for l := 0; l < st.layers(); l++ {
			h = f.layerRows(st, a, l, h, 0, b.NumNodes)
		}
		hs[i] = h
	}
	return s.Readout(f, hs)
}

// InferTarget implements TargetInferer: every stack on the target's cone
// over its own aggregation matrix, so a stack in which the target has no
// in-edges costs one row, then the readout on the target row alone.
func (s *Spec) InferTarget(f *Fwd, b *Batch, node int) float64 {
	hs := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		hs[i] = f.ConeForward(st.Agg.csr(b), b.X, node, st.layers(), func(l int, h, hN *tensor.Matrix) *tensor.Matrix {
			return st.Layer(f, l, h, hN)
		})
	}
	return s.Readout(f, hs).Data[0]
}

// EmbedSpec implements EmbedServing: one captured stream per stack.
func (s *Spec) EmbedSpec() (widths []int, hops int) {
	widths = make([]int, len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		widths[i] = st.Widths[st.layers()-1]
	}
	return widths, s.Stacks[0].layers()
}

// InferFinal implements EmbedServing: each stack's last layer on the
// target's aggregation row over the gathered penultimate block, then the
// readout.
func (s *Spec) InferFinal(f *Fwd, star *EmbedStar, hs []*tensor.Matrix) float64 {
	rows := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		rows[i] = st.Layer(f, st.layers()-1, hs[i].RowView(0), st.Agg.starRow(f, hs[i], star))
	}
	return s.Readout(f, rows).Data[0]
}

// BuildSweep implements SweepInferer.
func (s *Spec) BuildSweep(b *Batch) *SweepProgram { return s.BuildEmbedSweep(b, nil) }

// BuildEmbedSweep implements EmbedServing: one step per stack and layer
// that runs the layer on the step's row range, then the readout step.
// Stacks compile one after another, so a stack's layer buffers are
// recycled by the next stack's. Only the layer outputs are full height;
// each step's intermediates live in the worker's Fwd. With capture, the
// step of a stack's last layer first copies its input rows into
// capture[s] — the prior step's barrier has already finalized them.
func (s *Spec) BuildEmbedSweep(b *Batch, capture []*tensor.Matrix) *SweepProgram {
	n := b.NumNodes
	p := newSweepProgram(n)
	hs := make([]*tensor.Matrix, len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		a := st.Agg.csr(b)
		h := b.X
		for l := 0; l < st.layers(); l++ {
			in, out := h, p.alloc(n, st.Widths[l+1])
			var cp *tensor.Matrix
			if capture != nil && l == st.layers()-1 {
				cp = capture[i]
			}
			p.rowStep(fmt.Sprintf("s%d.l%d", i, l), func(f *Fwd, lo, hi int) {
				if cp != nil {
					copyRows(cp, in, lo, hi)
				}
				putRows(out, lo, f.layerRows(st, a, l, in, lo, hi))
			})
			if in != b.X {
				p.retire(in)
			}
			h = out
		}
		hs[i] = h
	}
	p.appendReadout(s.Readout, hs, b.X)
	return p
}

// layerRows computes rows [lo, hi) of stack st's layer l from the layer's
// full-height input in and the stack's aggregation matrix a.
func (f *Fwd) layerRows(st *Stack, a *autodiff.CSR, l int, in *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return st.Layer(f, l, in.RowsView(lo, hi), f.aggregateRange(a, in, lo, hi))
}

// Stack32 is one float32 message-passing stream: the quantized mirror of
// a Stack (same Agg, same layer count), whose Layer runs on quantized
// weights under the float32 tolerance contract.
type Stack32 struct {
	Agg    Agg
	Layers int
	Layer  func(f *Fwd32, l int, h, hN *tensor.Matrix32) *tensor.Matrix32
}

// Spec32 is a model's float32 forward, the mirror of its Spec. Embedding
// it gives the model Infer32 and InferTarget32.
type Spec32 struct {
	Stacks  []Stack32
	Readout func(f *Fwd32, hs []*tensor.Matrix32) *tensor.Matrix32
}

// Infer32 implements Inferer32: every stack over every row.
func (s *Spec32) Infer32(f *Fwd32, b *Batch) *tensor.Matrix32 {
	hs := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		a := b.CSR32For(st.Agg.csr(b))
		h := b.X32()
		for l := 0; l < st.Layers; l++ {
			h = st.Layer(f, l, h, f.Aggregate(a, h))
		}
		hs[i] = h
	}
	return s.Readout(f, hs)
}

// InferTarget32 implements TargetInferer32 on the target's cone.
func (s *Spec32) InferTarget32(f *Fwd32, b *Batch, node int) float32 {
	hs := f.stackRows(len(s.Stacks))
	for i := range s.Stacks {
		st := &s.Stacks[i]
		a := st.Agg.csr(b)
		hs[i] = f.ConeForward(a, b.CSR32For(a), b.X32(), node, st.Layers, func(l int, h, hN *tensor.Matrix32) *tensor.Matrix32 {
			return st.Layer(f, l, h, hN)
		})
	}
	return s.Readout(f, hs).Data[0]
}
