package gnn

import (
	"math"

	"turbo/internal/tensor"
)

// embed.go is the model half of the lambda-tier embedding split: batch
// sweeps precompute every node's penultimate-layer activations (the
// input of the last graph layer), and serving recomputes only the last
// layer plus the head for one target from those cached rows. Only the
// last layer reads other rows of its input — exactly the observation
// behind InferTarget — so freezing h^{L-1} turns a full multi-hop
// forward into one aggregation row, one dense layer, and the MLP head.
//
// Equivalence contract: InferFinal replicates the per-row arithmetic of
// the corresponding full forward — StarAggRow rebuilds the target's row
// of the aggregation matrix with the Batch CSR compilers' weight
// assembly and normalization order, and a Spec's InferFinal then runs
// the model's own last Layer and Readout on it (see spec.go) — over a
// compact gathered block of embedding rows. Scores agree with the
// full-graph forward to ≤1e-9 (the gathered block's dense matmuls may
// tile differently than the full-height ones, so equality is tolerance-
// bounded rather than bitwise).

// StarEdge is one in-edge of a serving target in local gathered
// coordinates: Row indexes the gathered embedding block (row 0 is the
// target itself; see EmbedStar), Weight is the §III-A-normalized edge
// weight exactly as FullSubgraph would emit it. Aggregation-row
// normalization (the normSum of buildCSR) happens inside StarAggRow.
type StarEdge struct {
	Row    int32
	Weight float64
}

// EmbedStar is the one-hop aggregation neighborhood of one target node,
// precompiled against an embedding table's universe. Gather lists the
// universe rows whose embeddings the final layer reads — Gather[0] is
// the target, Gather[i+1] the source of Merged[i] — and the edge lists
// reference those positions, so serving gathers one dense block and
// never remaps indices.
type EmbedStar struct {
	Gather []int32
	// Typed holds, per edge type, the target's in-edges sorted ascending
	// by source node ID with normalized weights — one row of the
	// TypedMeanCSR aggregation before row normalization.
	Typed [][]StarEdge
	// Merged is the type-merged edge list: the same sources with
	// duplicate weights summed in type order, matching mergeEdges'
	// stable sort.
	Merged []StarEdge
}

// EmbedServing is a model that supports the precomputed-embedding
// serving split: it can emit penultimate activations during a full
// sweep and score one target from cached rows.
type EmbedServing interface {
	Inferer
	// EmbedSpec returns the width of each penultimate activation stream
	// (one stream for the homogeneous models, one per edge type for
	// CFO-enabled HAG) and the number of graph layers L.
	EmbedSpec() (widths []int, hops int)
	// BuildEmbedSweep compiles the model's full-graph sweep with capture:
	// the program additionally copies each stream's penultimate
	// activations into capture[s] (NumNodes × widths[s], caller-owned).
	BuildEmbedSweep(b *Batch, capture []*tensor.Matrix) *SweepProgram
	// InferFinal computes the target's fraud logit from gathered
	// penultimate rows: hs[s] row i holds the embedding of star.Gather[i]
	// in stream s.
	InferFinal(f *Fwd, star *EmbedStar, hs []*tensor.Matrix) float64
}

// CanEmbedServe reports whether m supports the embedding serving split.
func CanEmbedServe(m Model) bool {
	_, ok := m.(EmbedServing)
	return ok
}

// StarAggRow computes the target's row of the aggregation matrix that
// buildCSR would compile from the star's edges, applied to the gathered
// embedding block h: raw weights in edge order (then the self-loop,
// when the normalization includes one), the same normSum row scaling,
// and the same accumulation order as a row of CSR.MatMulInto. unweighted
// replaces edge weights with 1, mirroring the Eq. 1–2 aggregations.
func StarAggRow(f *Fwd, h *tensor.Matrix, edges []StarEdge, selfLoop, unweighted bool) *tensor.Matrix {
	out := f.Get(1, h.Cols)
	var s float64
	for _, e := range edges {
		if unweighted {
			s += 1
		} else {
			s += e.Weight
		}
	}
	if selfLoop {
		s += 1
	}
	if s == 0 {
		return out // row stays zero, matching buildCSR's skip
	}
	inv := 1 / s
	for _, e := range edges {
		w := inv
		if !unweighted {
			w = e.Weight * inv
		}
		src := h.Row(int(e.Row))
		for j, v := range src {
			out.Data[j] += w * v
		}
	}
	if selfLoop {
		src := h.Row(0)
		for j, v := range src {
			out.Data[j] += inv * v
		}
	}
	return out
}

// EmbedSpec implements EmbedServing for GAT.
func (m *GAT) EmbedSpec() (widths []int, hops int) {
	return []int{m.layers[len(m.layers)-1].heads[0].w.Value.Rows}, len(m.layers)
}

// BuildEmbedSweep implements EmbedServing for GAT.
func (m *GAT) BuildEmbedSweep(b *Batch, capture []*tensor.Matrix) *SweepProgram {
	return m.buildSweep(b, capture[0])
}

// InferFinal implements EmbedServing for GAT: per head, project the
// gathered block, score the target's incident edges (merged order, then
// the self-loop — the segment order of buildGATStructure), LeakyReLU,
// max-subtracted segment softmax, and α-weighted aggregation into the
// head's column block; then ReLU over the concatenated row and the head
// MLP. The per-edge arithmetic mirrors the attn step of BuildSweep.
func (m *GAT) InferFinal(f *Fwd, star *EmbedStar, hs []*tensor.Matrix) float64 {
	h := hs[0]
	layer := m.layers[len(m.layers)-1]
	heads := layer.heads
	headCols := heads[0].w.Value.Cols
	nE := len(star.Merged) + 1 // incident edges plus the target's self-loop
	out := f.Get(1, headCols*len(heads))
	score := f.Get(nE, 1)
	alpha := f.Get(nE, 1)
	for k, hd := range heads {
		wh := f.MatMul(h, hd.w.Value)
		sSrc := f.MatMul(wh, hd.attSrc.Value)
		sDst := f.MatMul(wh, hd.attDst.Value)
		d := sDst.Data[0]
		mx := math.Inf(-1)
		for i, e := range star.Merged {
			s := sSrc.Data[e.Row] + d
			if s <= 0 {
				s *= 0.2
			}
			score.Data[i] = s
			if s > mx {
				mx = s
			}
		}
		s := sSrc.Data[0] + d // self-loop scores last, as in the sweep
		if s <= 0 {
			s *= 0.2
		}
		score.Data[nE-1] = s
		if s > mx {
			mx = s
		}
		var sum float64
		for i := 0; i < nE; i++ {
			x := math.Exp(score.Data[i] - mx)
			alpha.Data[i] = x
			sum += x
		}
		if sum != 0 {
			for i := 0; i < nE; i++ {
				alpha.Data[i] /= sum
			}
		}
		drow := out.Data[k*headCols : (k+1)*headCols]
		for i, e := range star.Merged {
			w := alpha.Data[i]
			src := wh.Row(int(e.Row))
			for j, v := range src {
				drow[j] += w * v
			}
		}
		w := alpha.Data[nE-1]
		src := wh.Row(0)
		for j, v := range src {
			drow[j] += w * v
		}
	}
	row := tensor.ReLUInPlace(out)
	return f.MLP(m.head, row).Data[0]
}
