package gnn

import (
	"fmt"

	"turbo/internal/autodiff"
	"turbo/internal/graph"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// Model is a node classifier over a Batch, producing one fraud logit per
// node. A nil dropRNG selects evaluation mode (no dropout).
type Model interface {
	nn.Module
	Name() string
	Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node
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
	Spec
	Spec32
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
	// The adjacency carries the self-loops, so a layer reads only the
	// aggregated rows.
	m.Spec = Spec{
		Stacks: []Stack{{Agg: MergedRW, Widths: sizes, Layer: func(f *Fwd, l int, _, hN *tensor.Matrix) *tensor.Matrix {
			return tensor.ReLUInPlace(f.Linear(m.layers[l], hN))
		}}},
		Readout: headReadout(m.head),
	}
	m.Spec32 = Spec32{
		Stacks: []Stack32{{Agg: MergedRW, Layers: len(m.layers), Layer: func(f *Fwd32, l int, _, hN *tensor.Matrix32) *tensor.Matrix32 {
			return tensor.ReLU32InPlace(f.Linear(m.layers[l], hN))
		}}},
		Readout: headReadout32(m.head),
	}
	return m
}

// headReadout is the readout of a single-stack model: the classification
// MLP on the stack's final rows.
func headReadout(head *nn.MLP) func(f *Fwd, hs []*tensor.Matrix) *tensor.Matrix {
	return func(f *Fwd, hs []*tensor.Matrix) *tensor.Matrix { return f.MLP(head, hs[0]) }
}

// headReadout32 is headReadout on quantized weights.
func headReadout32(head *nn.MLP) func(f *Fwd32, hs []*tensor.Matrix32) *tensor.Matrix32 {
	return func(f *Fwd32, hs []*tensor.Matrix32) *tensor.Matrix32 { return f.MLP(head, hs[0]) }
}

// Name implements Model.
func (m *GCN) Name() string { return "GCN" }

// Config returns the effective configuration (model artifacts rebuild
// the architecture from it before loading weights).
func (m *GCN) Config() Config { return m.cfg }

// Parameters implements nn.Module.
func (m *GCN) Parameters() []*nn.Parameter {
	var ps []*nn.Parameter
	for _, l := range m.layers {
		ps = append(ps, l.Parameters()...)
	}
	return append(ps, m.head.Parameters()...)
}

// Forward implements Model.
func (m *GCN) Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node {
	adj := b.MergedRWCSR()
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
	Spec
	Spec32
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
	// The concat-linear of each layer runs as a split matmul — W's top
	// rows against h, bottom rows against the neighbour mean — which is
	// bitwise the tape's MatMul(ConcatCols(h, hN), W) without
	// materializing the 2d-wide concatenation.
	m.Spec = Spec{
		Stacks: []Stack{{Agg: MergedMean, Widths: sizes, Layer: func(f *Fwd, l int, h, hN *tensor.Matrix) *tensor.Matrix {
			return tensor.ReLUInPlace(f.MatMulSplit(h, hN, m.layers[l].W.Value).AddRowVectorInPlace(m.layers[l].B.Value))
		}}},
		Readout: headReadout(m.head),
	}
	m.Spec32 = Spec32{
		Stacks: []Stack32{{Agg: MergedMean, Layers: len(m.layers), Layer: func(f *Fwd32, l int, h, hN *tensor.Matrix32) *tensor.Matrix32 {
			out := f.Get(h.Rows, m.layers[l].W.Value.Cols)
			tensor.MatMul32SplitInto(out, h, hN, m.layers[l].W.Value32())
			return tensor.ReLU32InPlace(out.AddRowVectorInPlace(m.layers[l].B.Value32()))
		}}},
		Readout: headReadout32(m.head),
	}
	return m
}

// Name implements Model.
func (m *GraphSAGE) Name() string { return "G-SAGE" }

// Config returns the effective configuration.
func (m *GraphSAGE) Config() Config { return m.cfg }

// Parameters implements nn.Module.
func (m *GraphSAGE) Parameters() []*nn.Parameter {
	var ps []*nn.Parameter
	for _, l := range m.layers {
		ps = append(ps, l.Parameters()...)
	}
	return append(ps, m.head.Parameters()...)
}

// Forward implements Model.
func (m *GraphSAGE) Forward(t *autodiff.Tape, b *Batch, dropRNG *tensor.RNG) *autodiff.Node {
	adj := b.MergedMeanCSR()
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

// GAT implements multi-head graph attention (Veličković et al.) on the
// type-merged graph, with self-loops so isolated nodes keep their own
// representation.
type GAT struct {
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
	for i := 0; i+1 < len(sizes); i++ {
		out := sizes[i+1] / cfg.Heads
		if out == 0 {
			out = 1
		}
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
	lastOut := (sizes[len(sizes)-1] / cfg.Heads) * cfg.Heads
	if lastOut == 0 {
		lastOut = cfg.Heads
	}
	m.head = newHead("gat", lastOut, cfg, rng)
	return m
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

// gatStructure caches the per-batch edge bookkeeping GAT attention needs.
type gatStructure struct {
	src, dst []int   // per edge, including self-loops
	segments [][]int // edge indices grouped by destination
	scatter  *autodiff.CSR
	// nodeCol mirrors scatter.ColIdx with each edge id replaced by the
	// edge's source node, so the tape-free path can aggregate α-weighted
	// source features directly from wh (same positions, same order).
	nodeCol []int
}

// gatStruct returns the batch's cached GAT edge structure, building it on
// first use (the structure is per-batch, not per-model, so training
// epochs reuse it).
func (b *Batch) gatStruct() *gatStructure {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gat == nil {
		b.gat = b.buildGATStructure(b.mergedEdgesLocked())
	}
	return b.gat
}

// buildGATStructure compiles the edge bookkeeping for GAT attention into
// pooled flat arrays. The scatter matrix groups edges by destination (in
// edge order, as the old per-row build did) and its ColIdx rows double
// as the softmax segments. Callers must hold b.mu.
func (b *Batch) buildGATStructure(merged []graph.LocalEdge) *gatStructure {
	n := b.NumNodes
	nE := len(merged) + n // plus self-loops
	s := &gatStructure{src: b.getInts(nE), dst: b.getInts(nE)}
	for i, e := range merged {
		s.src[i] = e.Src
		s.dst[i] = e.Dst
	}
	for i := 0; i < n; i++ { // self-loops
		s.src[len(merged)+i] = i
		s.dst[len(merged)+i] = i
	}
	// scatter[dst, e] = 1: multiplies the α-weighted per-edge source
	// features into per-node sums.
	rowPtr := b.getInts(n + 1)
	colIdx := b.getInts(nE)
	weights := b.getFloats(nE)
	next := tensor.GetInts(n)
	for _, d := range s.dst {
		next[d]++
	}
	sum := 0
	for i := 0; i < n; i++ {
		c := next[i]
		rowPtr[i] = sum
		next[i] = sum
		sum += c
	}
	rowPtr[n] = sum
	for e, d := range s.dst {
		p := next[d]
		next[d]++
		colIdx[p] = e
		weights[p] = 1
	}
	tensor.PutInts(next)
	s.scatter = &autodiff.CSR{NRows: n, NCols: nE, RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}
	s.segments = make([][]int, n)
	for i := 0; i < n; i++ {
		s.segments[i] = colIdx[rowPtr[i]:rowPtr[i+1]]
	}
	s.nodeCol = b.getInts(nE)
	for p, e := range colIdx {
		s.nodeCol[p] = s.src[e]
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
