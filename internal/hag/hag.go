// Package hag implements the paper's core contribution: the
// Heterogeneous Adaptive Graph neural network (§IV) with its two
// operators — the Self-aware Aggregation Operator (SAO, Eq. 5–9), which
// gates a node's own representation against its neighborhood via learned
// attention to resist clique-induced over-smoothing, and the Cross-type
// Fusion Operator (CFO, Eq. 10–15), which fuses the per-edge-type
// embedding streams with node-wise attention plus per-type macro
// transforms. The package also computes the influence distributions of
// Definition 1 used by the Fig. 9 case study.
package hag

import (
	"fmt"

	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

// Config holds HAG hyperparameters. The paper uses two layers of 128 and
// 64 units, attention layers of 64 units, and an MLP head of 32 units.
type Config struct {
	InDim        int
	NumEdgeTypes int
	Hidden       []int // SAO layer sizes; nil selects {128, 64}
	AttHidden    int   // attention hidden size t (Eq. 7–8); 0 selects 64
	FusedDim     int   // CFO output size d_m; 0 selects last Hidden
	MLPHidden    int   // classifier hidden size; 0 selects 32
	Dropout      float64
	Seed         uint64

	// DisableSAOGate removes α_self/α_neigh from Eq. 5 (the SAO(-)
	// ablation of Table V), reducing SAO to the additive skip form.
	DisableSAOGate bool
	// DisableCFO collapses all edge types onto the merged graph and
	// runs a single SAO stream (the CFO(-) ablation of Table V).
	DisableCFO bool
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64}
	}
	if c.AttHidden == 0 {
		c.AttHidden = 64
	}
	if c.FusedDim == 0 {
		c.FusedDim = c.Hidden[len(c.Hidden)-1]
	}
	if c.MLPHidden == 0 {
		c.MLPHidden = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumEdgeTypes <= 0 {
		panic("hag: NumEdgeTypes must be positive")
	}
	return c
}

// saoLayer is one SAO layer for one edge type.
type saoLayer struct {
	wls *nn.Parameter // in × out, self transform W_ls
	wln *nn.Parameter // in × out, neighborhood transform W_ln
	ws  *nn.Parameter // in × t, self attention projection W_s
	wn  *nn.Parameter // in × t, neighborhood attention projection W_n
	p   *nn.Parameter // 2t × 1, attention vector p
}

func newSAOLayer(name string, in, out, att int, rng *tensor.RNG) *saoLayer {
	return &saoLayer{
		wls: nn.NewParameter(name+".Wls", tensor.GlorotUniform(in, out, rng)),
		wln: nn.NewParameter(name+".Wln", tensor.GlorotUniform(in, out, rng)),
		ws:  nn.NewParameter(name+".Ws", tensor.GlorotUniform(in, att, rng)),
		wn:  nn.NewParameter(name+".Wn", tensor.GlorotUniform(in, att, rng)),
		p:   nn.NewParameter(name+".p", tensor.GlorotUniform(2*att, 1, rng)),
	}
}

func (l *saoLayer) parameters() []*nn.Parameter {
	return []*nn.Parameter{l.wls, l.wln, l.ws, l.wn, l.p}
}

// forward applies Eq. 5–9 on one homogeneous subgraph: h and hN are the
// node and aggregated-neighborhood representations (Eq. 6 is the
// caller's CSR aggregation). gated=false gives the SAO(-) additive form.
func (l *saoLayer) forward(t *autodiff.Tape, h, hN *autodiff.Node, gated bool) *autodiff.Node {
	selfT := t.MatMul(h, l.wls.Node(t))   // H·W_ls
	neighT := t.MatMul(hN, l.wln.Node(t)) // h_N·W_ln
	if !gated {
		return t.ReLU(t.Add(selfT, neighT))
	}
	wsH := t.MatMul(h, l.ws.Node(t))  // W_s h_v
	wnN := t.MatMul(hN, l.wn.Node(t)) // W_n h_N
	p := l.p.Node(t)
	// Eq. 7: α'_self = pᵀ·tanh(W_s h_v ; W_s h_v)
	aSelf := t.MatMul(t.Tanh(t.ConcatCols(wsH, wsH)), p)
	// Eq. 8: α'_neigh = pᵀ·tanh(W_n h_N ; W_s h_v)
	aNeigh := t.MatMul(t.Tanh(t.ConcatCols(wnN, wsH)), p)
	// Eq. 9: per-node softmax over the two scores.
	alpha := t.SoftmaxRows(t.ConcatCols(aSelf, aNeigh))
	alphaSelf := t.SliceCols(alpha, 0, 1)
	alphaNeigh := t.SliceCols(alpha, 1, 2)
	// Eq. 5.
	return t.ReLU(t.Add(t.MulColVector(selfT, alphaSelf), t.MulColVector(neighT, alphaNeigh)))
}

// cfoType holds the CFO parameters of one edge type: the micro-level
// attention (v_r, W_r of Eq. 12) and the macro-level transform M_r.
type cfoType struct {
	wAtt *nn.Parameter // d_k × d_a
	vAtt *nn.Parameter // d_a × 1
	m    *nn.Parameter // d_k × d_m
}

// HAG is the full model: per-type SAO stacks fused by CFO, classified by
// an MLP head. Its tape-free forward is one gnn.Spec per precision: a
// stack per SAO stream and the CFO fusion plus head as the readout.
type HAG struct {
	gnn.Spec
	gnn.Spec32
	cfg Config
	// streams[r][l] is SAO layer l of edge type r; with DisableCFO there
	// is a single stream over the merged graph.
	streams [][]*saoLayer
	cfo     []*cfoType
	head    *nn.MLP
}

// New builds a HAG model.
func New(cfg Config) *HAG {
	cfg = cfg.withDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	m := &HAG{cfg: cfg}
	nStreams := cfg.NumEdgeTypes
	if cfg.DisableCFO {
		nStreams = 1
	}
	sizes := append([]int{cfg.InDim}, cfg.Hidden...)
	for r := 0; r < nStreams; r++ {
		var stack []*saoLayer
		for l := 0; l+1 < len(sizes); l++ {
			stack = append(stack, newSAOLayer(fmt.Sprintf("hag.t%d.l%d", r, l), sizes[l], sizes[l+1], cfg.AttHidden, rng))
		}
		m.streams = append(m.streams, stack)
	}
	dk := sizes[len(sizes)-1]
	headIn := dk
	if !cfg.DisableCFO {
		for r := 0; r < cfg.NumEdgeTypes; r++ {
			m.cfo = append(m.cfo, &cfoType{
				wAtt: nn.NewParameter(fmt.Sprintf("hag.cfo%d.W", r), tensor.GlorotUniform(dk, cfg.AttHidden, rng)),
				vAtt: nn.NewParameter(fmt.Sprintf("hag.cfo%d.v", r), tensor.GlorotUniform(cfg.AttHidden, 1, rng)),
				m:    nn.NewParameter(fmt.Sprintf("hag.cfo%d.M", r), tensor.GlorotUniform(dk, cfg.FusedDim, rng)),
			})
		}
		headIn = cfg.FusedDim
	}
	m.head = nn.NewMLP("hag.head", []int{headIn, cfg.MLPHidden, 1}, nn.ActReLU, rng)
	gated := !cfg.DisableSAOGate
	for r, stack := range m.streams {
		agg := gnn.TypedMean(r)
		if cfg.DisableCFO {
			agg = gnn.MergedWeightedMean
		}
		m.Spec.Stacks = append(m.Spec.Stacks, gnn.Stack{Agg: agg, Widths: sizes, Layer: func(f *gnn.Fwd, l int, h, hN *tensor.Matrix) *tensor.Matrix {
			return stack[l].infer(f, h, hN, gated)
		}})
		m.Spec32.Stacks = append(m.Spec32.Stacks, gnn.Stack32{Agg: agg, Layers: len(stack), Layer: func(f *gnn.Fwd32, l int, h, hN *tensor.Matrix32) *tensor.Matrix32 {
			return stack[l].infer32(f, h, hN, gated)
		}})
	}
	m.Spec.Readout, m.Spec32.Readout = m.readout, m.readout32
	return m
}

// Name implements gnn.Model.
func (m *HAG) Name() string {
	switch {
	case m.cfg.DisableSAOGate && m.cfg.DisableCFO:
		return "HAG-Both(-)"
	case m.cfg.DisableSAOGate:
		return "HAG-SAO(-)"
	case m.cfg.DisableCFO:
		return "HAG-CFO(-)"
	}
	return "HAG"
}

// Config returns the effective configuration.
func (m *HAG) Config() Config { return m.cfg }

// Parameters implements nn.Module.
func (m *HAG) Parameters() []*nn.Parameter {
	var ps []*nn.Parameter
	for _, stack := range m.streams {
		for _, l := range stack {
			ps = append(ps, l.parameters()...)
		}
	}
	for _, c := range m.cfo {
		ps = append(ps, c.wAtt, c.vAtt, c.m)
	}
	return append(ps, m.head.Parameters()...)
}

// Embed computes the fused node embeddings H (pre-head) from an input
// feature node x, exposed separately so influence analysis can seed
// gradients at the embedding level while keeping x a tape leaf.
func (m *HAG) Embed(t *autodiff.Tape, b *gnn.Batch, x *autodiff.Node, dropRNG *tensor.RNG) *autodiff.Node {
	gated := !m.cfg.DisableSAOGate
	if m.cfg.DisableCFO {
		h := x
		adj := b.MergedWeightedMeanCSR()
		for _, l := range m.streams[0] {
			h = l.forward(t, h, t.Aggregate(adj, h), gated)
			h = t.Dropout(h, m.cfg.Dropout, dropRNG)
		}
		return h
	}
	// Eq. 10: one SAO stream per edge type on its homogeneous subgraph.
	var fused *autodiff.Node
	var scores *autodiff.Node
	typeEmb := make([]*autodiff.Node, m.cfg.NumEdgeTypes)
	for r := 0; r < m.cfg.NumEdgeTypes; r++ {
		h := x
		adj := b.TypedMeanCSR(r)
		for _, l := range m.streams[r] {
			h = l.forward(t, h, t.Aggregate(adj, h), gated)
			h = t.Dropout(h, m.cfg.Dropout, dropRNG)
		}
		typeEmb[r] = h
		// Eq. 12 (micro level): score_{v,r} = v_rᵀ tanh(W_r h_{v,r}).
		s := t.MatMul(t.Tanh(t.MatMul(h, m.cfo[r].wAtt.Node(t))), m.cfo[r].vAtt.Node(t))
		if scores == nil {
			scores = s
		} else {
			scores = t.ConcatCols(scores, s)
		}
	}
	// Eq. 12: node-wise softmax over types.
	alpha := t.SoftmaxRows(scores)
	// Eq. 13–15: H_v = Σ_r α_{v,r} · (h_{v,r} M_r), the macro-level
	// per-type transforms aggregated by the micro-level coefficients.
	for r := 0; r < m.cfg.NumEdgeTypes; r++ {
		term := t.MulColVector(t.MatMul(typeEmb[r], m.cfo[r].m.Node(t)), t.SliceCols(alpha, r, r+1))
		if fused == nil {
			fused = term
		} else {
			fused = t.Add(fused, term)
		}
	}
	return fused
}

// Forward implements gnn.Model.
func (m *HAG) Forward(t *autodiff.Tape, b *gnn.Batch, dropRNG *tensor.RNG) *autodiff.Node {
	return m.head.Forward(t, m.Embed(t, b, t.Const(b.X), dropRNG))
}

// TypeAttention returns the CFO attention coefficients α_{v,r} for every
// node (NumNodes × NumEdgeTypes), a diagnostic of how much each edge
// type contributes per node. It returns nil when CFO is disabled.
func (m *HAG) TypeAttention(b *gnn.Batch) *tensor.Matrix {
	if m.cfg.DisableCFO {
		return nil
	}
	t := autodiff.NewTape()
	x := t.Const(b.X)
	gated := !m.cfg.DisableSAOGate
	var scores *autodiff.Node
	for r := 0; r < m.cfg.NumEdgeTypes; r++ {
		h := x
		adj := b.TypedMeanCSR(r)
		for _, l := range m.streams[r] {
			h = l.forward(t, h, t.Aggregate(adj, h), gated)
		}
		s := t.MatMul(t.Tanh(t.MatMul(h, m.cfo[r].wAtt.Node(t))), m.cfo[r].vAtt.Node(t))
		if scores == nil {
			scores = s
		} else {
			scores = t.ConcatCols(scores, s)
		}
	}
	return tensor.SoftmaxRows(scores.Value)
}
