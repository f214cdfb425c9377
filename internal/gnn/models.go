package gnn

import (
	"fmt"

	"turbo/internal/autodiff"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// Model is a node classifier over a Batch, producing one fraud logit per
// node. Forward is the training path on the autodiff tape (a nil dropRNG
// selects evaluation mode, no dropout); every other method is the
// tape-free evaluation forward a model gets by embedding its Specs (see
// spec.go), so training, per-audit scoring at both precisions,
// full-graph passes and embedding serving all run one model definition.
type Model interface {
	nn.Module
	Name() string
	Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node

	// Infer computes every node's logit without the tape. The returned
	// matrix is Fwd scratch: read it before releasing the Fwd, and do not
	// retain it.
	Infer(f *Fwd[float64], b *Batch) *tensor.Matrix
	// InferTarget computes one node's logit on its computation cone (see
	// Cone) and nothing else, bitwise the full forward's row.
	InferTarget(f *Fwd[float64], b *Batch, node int) float64
	// Infer32 and InferTarget32 are Infer and InferTarget on the float32
	// instantiation of the same forward (see CanInfer32).
	Infer32(f *Fwd[float32], b *Batch) *tensor.Matrix32
	InferTarget32(f *Fwd[float32], b *Batch, node int) float32
	// EmbedSpec returns the width of each penultimate activation stream
	// (one per stack) and the number of graph layers L.
	EmbedSpec() (widths []int, hops int)
	// InferEmbed is Infer that also writes each stream's penultimate
	// activations into capture[s] (NumNodes × widths[s], caller-owned).
	InferEmbed(f *Fwd[float64], b *Batch, capture []*tensor.Matrix) *tensor.Matrix
	// InferFinal computes the target's logit from gathered penultimate
	// rows: hs[s] row i holds the embedding of star.Gather[i] in stream s.
	InferFinal(f *Fwd[float64], star *EmbedStar, hs []*tensor.Matrix) float64

	specs() *Specs // the description every method above runs
}

// Config holds the shared GNN hyperparameters of §VI-A: two graph layers
// with 128 and 64 hidden units cascaded by an MLP with 32 hidden units.
type Config struct {
	InDim     int
	Hidden    []int // graph-layer output sizes; nil selects {128, 64}
	MLPHidden int   // classifier hidden size; 0 selects 32
	Heads     int   // GAT attention heads; 0 selects 2
	Dropout   float64
	Seed      uint64
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64}
	}
	if c.MLPHidden == 0 {
		c.MLPHidden = 32
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// layerSizes returns [in, hidden...].
func (c Config) layerSizes() []int {
	return append([]int{c.InDim}, c.Hidden...)
}

// newHead builds the classification MLP applied to final embeddings.
func newHead(name string, in int, c Config, rng *tensor.RNG) *nn.MLP {
	return nn.NewMLP(name+".head", []int{in, c.MLPHidden, 1}, nn.ActReLU, rng)
}

// --- GCN -------------------------------------------------------------------

// GCN is the random-walk-like inductive GCN of Eq. 1: each layer computes
// ReLU(W · mean over Ñ(v) of h_u) on the type-merged adjacency with
// self-loops.
type GCN struct {
	Specs
	cfg    Config
	layers []*nn.Linear
	head   *nn.MLP
}

// NewGCN builds a GCN with the paper's defaults.
func NewGCN(cfg Config) *GCN {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	m := &GCN{cfg: cfg}
	sizes := cfg.layerSizes()
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, nn.NewLinear(fmt.Sprintf("gcn.l%d", i), sizes[i], sizes[i+1], rng))
	}
	m.head = newHead("gcn", sizes[len(sizes)-1], cfg, rng)
	m.Specs = Specs{F64: gcnSpec[float64](m, sizes), F32: gcnSpec[float32](m, sizes)}
	return m
}

// gcnSpec is GCN's forward at precision F. The adjacency carries the
// self-loops, so a layer reads only the aggregated rows.
func gcnSpec[F tensor.Float](m *GCN, sizes []int) Spec[F] {
	return Spec[F]{
		Stacks: []Stack[F]{{Agg: MergedRW, Widths: sizes, Layer: func(f *Fwd[F], l int, _, hN *tensor.Mat[F]) *tensor.Mat[F] {
			return tensor.ReLUInPlace(f.Linear(m.layers[l], hN))
		}}},
		Readout: headReadout[F](m.head),
	}
}

// linearParams lists the parameters of a stack of linear layers, then
// the head's.
func linearParams(layers []*nn.Linear, head *nn.MLP) []*nn.Parameter {
	var ps []*nn.Parameter
	for _, l := range layers {
		ps = append(ps, l.Parameters()...)
	}
	return append(ps, head.Parameters()...)
}

// headReadout is the readout of a single-stack model: the classification
// MLP on the stack's final rows.
func headReadout[F tensor.Float](head *nn.MLP) func(f *Fwd[F], hs []*tensor.Mat[F]) *tensor.Mat[F] {
	return func(f *Fwd[F], hs []*tensor.Mat[F]) *tensor.Mat[F] { return f.MLP(head, hs[0]) }
}

// Name implements Model.
func (m *GCN) Name() string { return "GCN" }

// Config returns the effective configuration (model artifacts rebuild
// the architecture from it before loading weights).
func (m *GCN) Config() Config { return m.cfg }

// Parameters implements nn.Module.
func (m *GCN) Parameters() []*nn.Parameter { return linearParams(m.layers, m.head) }

// Forward implements Model.
func (m *GCN) Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node {
	adj := b.CSR(MergedRW)
	h := t.Const(b.X)
	for _, l := range m.layers {
		h = t.ReLU(l.Forward(t, t.Aggregate(adj, h)))
		h = t.Dropout(h, m.cfg.Dropout, dropRNG)
	}
	return m.head.Forward(t, h)
}

// --- GraphSAGE ---------------------------------------------------------------

// GraphSAGE is the skip-connection baseline of Eq. 2: each layer computes
// ReLU(W · [h_v ; mean over N(v) of h_u]).
type GraphSAGE struct {
	Specs
	cfg    Config
	layers []*nn.Linear
	head   *nn.MLP
}

// NewGraphSAGE builds a GraphSAGE model.
func NewGraphSAGE(cfg Config) *GraphSAGE {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	m := &GraphSAGE{cfg: cfg}
	sizes := cfg.layerSizes()
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, nn.NewLinear(fmt.Sprintf("sage.l%d", i), 2*sizes[i], sizes[i+1], rng))
	}
	m.head = newHead("sage", sizes[len(sizes)-1], cfg, rng)
	m.Specs = Specs{F64: sageSpec[float64](m, sizes), F32: sageSpec[float32](m, sizes)}
	return m
}

// sageSpec is GraphSAGE's forward at precision F. The concat-linear of
// each layer runs as a split matmul — W's top rows against h, bottom rows
// against the neighbour mean — which is bitwise the tape's
// MatMul(ConcatCols(h, hN), W) without materializing the 2d-wide
// concatenation.
func sageSpec[F tensor.Float](m *GraphSAGE, sizes []int) Spec[F] {
	return Spec[F]{
		Stacks: []Stack[F]{{Agg: MergedMean, Widths: sizes, Layer: func(f *Fwd[F], l int, h, hN *tensor.Mat[F]) *tensor.Mat[F] {
			return tensor.ReLUInPlace(f.MatMulSplit(h, hN, f.Value(m.layers[l].W)).AddRowVectorInPlace(f.Value(m.layers[l].B)))
		}}},
		Readout: headReadout[F](m.head),
	}
}

// Name implements Model.
func (m *GraphSAGE) Name() string { return "G-SAGE" }

// Config returns the effective configuration.
func (m *GraphSAGE) Config() Config { return m.cfg }

// Parameters implements nn.Module.
func (m *GraphSAGE) Parameters() []*nn.Parameter { return linearParams(m.layers, m.head) }

// Forward implements Model.
func (m *GraphSAGE) Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node {
	adj := b.CSR(MergedMean)
	h := t.Const(b.X)
	for _, l := range m.layers {
		hn := t.Aggregate(adj, h)
		h = t.ReLU(l.Forward(t, t.ConcatCols(h, hn)))
		h = t.Dropout(h, m.cfg.Dropout, dropRNG)
	}
	return m.head.Forward(t, h)
}

// --- GAT ---------------------------------------------------------------------

// gatLayer is one multi-head graph attention layer.
type gatLayer struct {
	heads []*gatHead
}

type gatHead struct {
	w      *nn.Parameter // in × out
	attSrc *nn.Parameter // out × 1
	attDst *nn.Parameter // out × 1
}

// gatProject maps a block of layer input rows to the attention
// projection a Stack's Project returns. It is the one GAT primitive
// whose arithmetic differs by precision: project at float64, the folded
// project32 at float32.
func gatProject[F tensor.Float](f *Fwd[F], g *gatLayer, h *tensor.Mat[F]) *tensor.Mat[F] {
	if f64, ok := any(f).(*Fwd[float64]); ok {
		return any(g.project(f64, any(h).(*tensor.Matrix))).(*tensor.Mat[F])
	}
	return any(g.project32(any(f).(*Fwd[float32]), any(h).(*tensor.Matrix32))).(*tensor.Mat[F])
}

// project is gatProject at float64: per head k, wh_k = h·W_k in column
// block k, then the head's scores wh_k·a_src and wh_k·a_dst — the same
// kernels, row for row, as the tape's MatMul(h, W) and its score
// MatMuls.
func (g *gatLayer) project(f *Fwd[float64], h *tensor.Matrix) *tensor.Matrix {
	d := g.heads[0].w.Value.Cols
	sc := len(g.heads) * d
	z := f.Get(h.Rows, sc+2*len(g.heads))
	for k, hd := range g.heads {
		wh := f.MatMul(h, hd.w.Value)
		sSrc, sDst := f.MatMul(wh, hd.attSrc.Value), f.MatMul(wh, hd.attDst.Value)
		for i := 0; i < h.Rows; i++ {
			row := z.Row(i)
			copy(row[k*d:], wh.Row(i))
			row[sc+2*k], row[sc+2*k+1] = sSrc.Data[i], sDst.Data[i]
		}
	}
	return z
}

// project32 is gatProject at float32, folded into one matmul: since
// (h·W)·a = h·(W·a), the heads' W side by side, augmented with the
// columns W_k·a_src and W_k·a_dst, yield the features and every score in
// one product. Under the vector kernels the operand is zero-padded to
// full 8-column tiles so the whole product stays on the FMA path; the
// pad columns are never read.
func (g *gatLayer) project32(f *Fwd[float32], h *tensor.Matrix32) *tensor.Matrix32 {
	d := g.heads[0].w.Value.Cols
	sc := len(g.heads) * d
	cols := sc + 2*len(g.heads)
	if tensor.SIMDEnabled() {
		cols = (cols + 7) &^ 7
	}
	waug := f.Get(h.Cols, cols)
	for k, hd := range g.heads {
		w, aS, aD := hd.w.Value32(), hd.attSrc.Value32(), hd.attDst.Value32()
		for r := 0; r < w.Rows; r++ {
			row, wrow := waug.Row(r), w.Row(r)
			copy(row[k*d:], wrow)
			var s, t float32
			for j, x := range wrow {
				s += x * aS.Data[j]
				t += x * aD.Data[j]
			}
			row[sc+2*k], row[sc+2*k+1] = s, t
		}
	}
	return f.MatMul(h, waug)
}

// GAT implements multi-head graph attention (Veličković et al.) on the
// type-merged graph, with self-loops so isolated nodes keep their own
// representation.
type GAT struct {
	Specs
	cfg    Config
	layers []*gatLayer
	head   *nn.MLP
}

// NewGAT builds a GAT whose per-layer output size is split across heads.
func NewGAT(cfg Config) *GAT {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	m := &GAT{cfg: cfg}
	sizes := cfg.layerSizes()
	widths := []int{sizes[0]}
	for i := 0; i+1 < len(sizes); i++ {
		out := sizes[i+1] / cfg.Heads
		if out == 0 {
			out = 1
		}
		widths = append(widths, out*cfg.Heads)
		layer := &gatLayer{}
		for h := 0; h < cfg.Heads; h++ {
			name := fmt.Sprintf("gat.l%d.h%d", i, h)
			layer.heads = append(layer.heads, &gatHead{
				w:      nn.NewParameter(name+".W", tensor.GlorotUniform(sizes[i], out, rng)),
				attSrc: nn.NewParameter(name+".aS", tensor.GlorotUniform(out, 1, rng)),
				attDst: nn.NewParameter(name+".aD", tensor.GlorotUniform(out, 1, rng)),
			})
		}
		m.layers = append(m.layers, layer)
	}
	m.head = newHead("gat", widths[len(widths)-1], cfg, rng)
	m.Specs = Specs{F64: gatSpec[float64](m, widths), F32: gatSpec[float32](m, widths)}
	return m
}

// gatSpec is GAT's forward at precision F. Attention runs over
// MergedRW's pattern: its row i lists i's merged in-edges in edge order,
// then the self-loop — the softmax segments of the tape's gatStructure,
// in the same order. A layer is the ReLU of the heads' concatenated
// aggregations.
func gatSpec[F tensor.Float](m *GAT, widths []int) Spec[F] {
	return Spec[F]{
		Stacks: []Stack[F]{{
			Agg: MergedRW, Widths: widths, Heads: m.cfg.Heads,
			Project: func(f *Fwd[F], l int, h *tensor.Mat[F]) *tensor.Mat[F] { return gatProject(f, m.layers[l], h) },
			Layer:   func(_ *Fwd[F], _ int, _, hN *tensor.Mat[F]) *tensor.Mat[F] { return tensor.ReLUInPlace(hN) },
		}},
		Readout: headReadout[F](m.head),
	}
}

// Name implements Model.
func (m *GAT) Name() string { return "GAT" }

// Config returns the effective configuration.
func (m *GAT) Config() Config { return m.cfg }

// Parameters implements nn.Module.
func (m *GAT) Parameters() []*nn.Parameter {
	var ps []*nn.Parameter
	for _, l := range m.layers {
		for _, h := range l.heads {
			ps = append(ps, h.w, h.attSrc, h.attDst)
		}
	}
	return append(ps, m.head.Parameters()...)
}

// gatStructure caches the per-batch edge bookkeeping of GAT's tape
// forward, the reference its Spec is checked against.
type gatStructure struct {
	src, dst []int   // per edge, including self-loops
	segments [][]int // edge indices grouped by destination
	scatter  *autodiff.CSR
}

// gatStruct returns the batch's cached GAT edge structure, building it on
// first use from the batch's MergedRW matrix (the structure is per-batch,
// not per-model, so training epochs reuse it).
func (b *Batch) gatStruct() *gatStructure {
	rw := b.CSR(MergedRW)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gat == nil {
		b.gat = b.buildGATStructure(rw)
	}
	return b.gat
}

// buildGATStructure compiles the edge bookkeeping for GAT attention into
// pooled flat arrays: the merged edges sorted by (src, dst), then one
// self-loop per node. rw's rows are destinations, each ending with its
// self-loop, so a counting sort of its other entries by column lists the
// edges in that order. The scatter matrix (scatter[dst, e] = 1, summing
// the α-weighted per-edge source features per node) shares rw's row
// pointers: row j lists j's edges by ascending source, hence ascending
// edge index, then its self-loop. Its ColIdx rows double as the softmax
// segments. Callers must hold b.mu.
func (b *Batch) buildGATStructure(rw *autodiff.CSR) *gatStructure {
	n, nE := b.NumNodes, rw.NNZ()
	m := nE - n // the merged edges
	s := &gatStructure{src: b.getInts(nE), dst: b.getInts(nE)}
	colIdx, weights := b.getInts(nE), b.getFloats(nE)
	next := tensor.GetInts(n + 1)
	for _, i := range rw.ColIdx {
		next[i+1]++
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i] - 1 // less i's self-loop
	}
	for j := 0; j < n; j++ {
		last := rw.RowPtr[j+1] - 1
		for p := rw.RowPtr[j]; p < last; p++ {
			i := rw.ColIdx[p]
			s.src[next[i]], s.dst[next[i]], colIdx[p] = i, j, next[i]
			next[i]++
		}
		s.src[m+j], s.dst[m+j], colIdx[last] = j, j, m+j
	}
	tensor.PutInts(next)
	for p := range weights {
		weights[p] = 1
	}
	s.scatter = &autodiff.CSR{NRows: n, NCols: nE, RowPtr: rw.RowPtr, ColIdx: colIdx, Weights: weights}
	s.segments = make([][]int, n)
	for i := range s.segments {
		s.segments[i] = colIdx[rw.RowPtr[i]:rw.RowPtr[i+1]]
	}
	return s
}

// Forward implements Model.
func (m *GAT) Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node {
	st := b.gatStruct()
	h := t.Const(b.X)
	for li, layer := range m.layers {
		var outs *autodiff.Node
		for _, hd := range layer.heads {
			wh := t.MatMul(h, hd.w.Node(t))
			eSrc := t.SelectRows(wh, st.src)
			eDst := t.SelectRows(wh, st.dst)
			score := t.Add(t.MatMul(eSrc, hd.attSrc.Node(t)), t.MatMul(eDst, hd.attDst.Node(t)))
			alpha := t.SegmentSoftmax(t.LeakyReLU(score, 0.2), st.segments)
			agg := t.Aggregate(st.scatter, t.MulColVector(eSrc, alpha))
			if outs == nil {
				outs = agg
			} else {
				outs = t.ConcatCols(outs, agg)
			}
		}
		if li+1 < len(m.layers) {
			h = t.Dropout(t.ReLU(outs), m.cfg.Dropout, dropRNG)
		} else {
			h = t.ReLU(outs)
		}
	}
	return m.head.Forward(t, h)
}
