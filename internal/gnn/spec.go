package gnn

import (
	"runtime"
	"slices"
	"sync/atomic"

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
//   - every row (Infer): each step splits the rows into tiles, and each
//     tile aggregates its neighbourhoods from the previous layer's
//     full-height output and applies the layer to itself;
//   - the embedding star (InferFinal): the last layer on the target's
//     aggregation row, cut from the batch that computed the cached
//     penultimate rows, over those rows, then the readout.
//
// Since all three call the same Layer and Readout on blocks of rows, and
// the dense kernels are row-independent (tensor.matMulRange's bitwise
// contract), the three agree bitwise with each other and with the tape
// forward on the rows they share.

// Agg names the aggregation matrix a stack reads (Batch.CSR), and with it
// the row of that matrix a serving star holds for the stack (CutStars).
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
	// a view into a buffer other tiles are reading.
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
// precision. It runs layer-major: step l computes layer l of every stack
// as one fork-join on the tensor pool (forRows), after one fork-join that
// projects every attention stack's layer-l input, and each join is the
// barrier the next step needs, since an aggregation may read any row of
// its input. The readout runs inside the last layer's tiles, on a
// tile-high block of each stack's final rows, so those rows are never
// materialized full-height: a depth-L model costs L fork-joins, plus L
// if it has attention stacks. Every stack must have the same depth
// (Infer panics otherwise). Before step 0
// the batch compiles every matrix the stacks read (Batch.compile).
// Full-height activations come from the tensor pool; a layer's input is
// dead once its step has joined, and the next step's outputs of its
// width reuse it. With capture, stack s writes its penultimate rows (the
// last layer's input) into capture[s], NumNodes × that width and the
// caller's to keep: the rows the embedding tier serves from. The logits
// are f's scratch.
func (s *Spec[F]) Infer(f *Fwd[F], b *Batch, capture []*tensor.Mat[F]) *tensor.Mat[F] {
	n, x, stacks := b.NumNodes, inputFor[F](b), s.Stacks
	depth := stacks[0].layers()
	aggs := make([]Agg, len(stacks))
	for i := range stacks {
		if stacks[i].layers() != depth {
			panic("gnn: Infer needs every stack at the same depth")
		}
		aggs[i] = stacks[i].Agg
	}
	b.compile(aggs)
	ops := make([]*tensor.CSR[F], len(stacks))
	// Per stack: the step's input rows, their projection (the input
	// itself for a weighted stack) and the step's output rows.
	hs, srcs, outs := make([]*tensor.Mat[F], len(stacks)), make([]*tensor.Mat[F], len(stacks)), make([]*tensor.Mat[F], len(stacks))
	width := 0
	for i := range stacks {
		ops[i], hs[i] = operandFor[F](b, stacks[i].Agg), x
		width += stacks[i].Widths[depth]
		if capture != nil && depth == 1 {
			copy(capture[i].Data, x.Data)
		}
	}
	// A dead buffer serves the next one of its width unzeroed, since
	// every step writes all its rows.
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
	logits := f.Get(n, 1)
	for l := 0; l < depth; l++ {
		last := l == depth-1
		work := 0
		for i := range stacks {
			st := &stacks[i]
			srcs[i] = hs[i]
			if st.Project != nil {
				srcs[i] = buf(st.Widths[l+1] + 2*st.Heads)
				work += n * hs[i].Cols * srcs[i].Cols
			}
		}
		if work > 0 {
			forRows(n, work, func(f *Fwd[F], lo, hi int) {
				for i := range stacks {
					if st := &stacks[i]; st.Project != nil {
						m := f.mark()
						putRows(srcs[i], lo, st.Project(f, l, f.rowsView(hs[i], lo, hi)))
						f.reset(m)
					}
				}
			})
		}
		work = 0
		for i := range stacks {
			st := &stacks[i]
			w, aw := st.Widths[l+1], st.aggWidth(l, srcs[i])
			work += ops[i].NNZ()*aw + n*(hs[i].Cols+aw)*w
			switch {
			case last:
				outs[i] = nil
			case capture != nil && l == depth-2:
				outs[i] = capture[i]
			default:
				outs[i] = buf(w)
			}
		}
		if last {
			work += n * width * width
		}
		forRows(n, work, func(f *Fwd[F], lo, hi int) {
			var final []*tensor.Mat[F]
			if last {
				final = f.stackRows(len(stacks))
				for i := range stacks {
					final[i] = f.Get(hi-lo, stacks[i].Widths[depth])
				}
			}
			for i := range stacks {
				st, m := &stacks[i], f.mark()
				h := st.Layer(f, l, f.rowsView(hs[i], lo, hi), f.aggregateRange(st, l, ops[i], srcs[i], lo, hi))
				if last {
					putRows(final[i], 0, h)
				} else {
					putRows(outs[i], lo, h)
				}
				f.reset(m)
			}
			if last {
				putRows(logits, lo, s.Readout(f, final))
			}
		})
		for i := range stacks {
			if srcs[i] != hs[i] {
				free = append(free, srcs[i])
			}
			if hs[i] != x && (capture == nil || hs[i] != capture[i]) {
				free = append(free, hs[i])
			}
			hs[i] = outs[i]
		}
	}
	for _, m := range free {
		tensor.PutMat(m)
	}
	return logits
}

// rowTile is the rows one claim of a self-scheduled step covers
// (forRows). It is a multiple of eight, so the float32 kernels' 8-wide
// lanes, scalar tails and 4-row tiles fall on the same elements as in
// one range. A step over 1,000 rows is eight tiles: enough for a few
// loops to even out, few enough that per-call overhead stays out of
// sight (64 rows measured the same in BenchmarkRebuildOnce at
// GOMAXPROCS 1).
const rowTile = 128

// forRows runs fn over [0, n) in tiles of rowTile rows as one fork-join
// on the tensor pool: one loop per core (eachLoop), each holding one
// pooled Fwd whose dense kernels stay on its goroutine, since the other
// loops already occupy the remaining cores, and claiming the next tile
// from a shared cursor until none is left. A core slowed by a GC or a
// steal delays only the tiles it holds. Below the pool's threshold for
// the work estimate a single loop runs every tile on the calling
// goroutine. fn's scratch is returned to the loop's Fwd after each tile,
// so what a loop retains is bounded by one tile whatever n is. Tiles
// start on multiples of rowTile and every other kernel is
// row-independent: the result does not depend on which loop ran which
// tile.
func forRows[F tensor.Float](n, work int, fn func(f *Fwd[F], lo, hi int)) {
	var next atomic.Int64
	eachLoop((n+rowTile-1)/rowTile, work, func() {
		f := AcquireFwd[F]()
		f.serial = true
		for lo := int(next.Add(rowTile)) - rowTile; lo < n; lo = int(next.Add(rowTile)) - rowTile {
			fn(f, lo, min(lo+rowTile, n))
			f.reset(0)
		}
		f.serial = false
		ReleaseFwd(f)
	})
}

// eachLoop runs loop on min(GOMAXPROCS, tasks) goroutines as one
// fork-join on the tensor pool (tensor.ParallelRows over the loops), or
// once on the calling goroutine when work is below the pool's
// threshold. The loops share the tasks through a cursor of the caller's,
// so how many run changes no result.
func eachLoop(tasks, work int, loop func()) {
	tensor.ParallelRows(min(runtime.GOMAXPROCS(0), tasks), work, func(int, int) { loop() })
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
// target's row of the star over the gathered penultimate block, through
// the row kernels Infer and ConeForward run, then the readout.
func (s *Specs) InferFinal(f *Fwd[float64], star *EmbedStar, hs []*tensor.Matrix) float64 {
	rows := f.stackRows(len(s.F64.Stacks))
	for i := range s.F64.Stacks {
		st := &s.F64.Stacks[i]
		l, src := st.layers()-1, hs[i]
		if st.Project != nil {
			src = st.Project(f, l, src)
		}
		// Stack i's row of the star as a one-row matrix over the gathered
		// block: its destination, row 0, is the target.
		f.star = tensor.CSR[float64]{NRows: 1, NCols: len(star.Gather), RowPtr: star.RowPtr[i : i+2], ColIdx: star.Cols, Weights: star.Weights}
		hN := f.aggregateRange(st, l, &f.star, src, 0, 1)
		rows[i] = st.Layer(f, l, hs[i].RowView(0), hN)
	}
	return s.F64.Readout(f, rows).Data[0]
}
