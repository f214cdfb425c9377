package gnn

import (
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
// weight exactly as the snapshot's row writer puts it in the full-graph
// batch (one snapshot writer compiles cone and full-graph batches).
// Aggregation-row normalization (finishCSR's) happens inside StarAggRow.
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
	// duplicate weights summed in type order, as the batch's merged
	// matrices sum them.
	Merged []StarEdge
}

// StarAggRow computes the target's row of the aggregation matrix that
// buildCSR would compile from the star's edges, applied to the gathered
// embedding block h: raw weights in edge order (then the self-loop,
// when the normalization includes one), the same finishCSR row scaling,
// and the same accumulation order as a row of CSR.MatMulInto. unweighted
// replaces edge weights with 1, mirroring the Eq. 1–2 aggregations.
func StarAggRow(f *Fwd[float64], h *tensor.Matrix, edges []StarEdge, selfLoop, unweighted bool) *tensor.Matrix {
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
