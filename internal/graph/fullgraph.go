package graph

import "math"

// fullgraph.go flattens an entire GraphView into one Subgraph — the
// full-graph analogue of SampleView. The layer-at-a-time sweep engine
// (internal/sweep) compiles this once per snapshot instead of sampling a
// computation subgraph once per audited user, and the eval harness
// delegates its full-batch compilation here so both paths share one
// definition of the §III-A edge set and normalization.

// FullOptions controls FullSubgraph extraction.
type FullOptions struct {
	// Nodes, when non-nil, fixes the subgraph's node set and row order.
	// Callers with an established alignment between rows and feature
	// vectors (eval's Assembled.Nodes) pass it so activations line up
	// with their feature matrix. Nil selects every node of the view in
	// sorted-ID order.
	Nodes []NodeID
	// Filter, when non-nil, restricts the node set (ignored when Nodes
	// is given); the sweep engine keeps only users with transactions.
	Filter func(NodeID) bool
	// RawWeights disables the §III-A symmetric normalization (ablation
	// benches).
	RawWeights bool
	// Mask omits all edges of one type (Fig. 7 edge ablation).
	Mask EdgeMask
}

// FullSubgraph builds a Subgraph over the given nodes with every
// (unmasked) typed edge among them. Edges of type t appear grouped by
// type, then by source row in node order, then by ascending neighbor ID
// — the deterministic order the GNN batch compiler relies on. Rows whose
// typed weighted degree is zero contribute no edges of that type (they
// have none), and edges to nodes outside the set are dropped, so the
// result is self-contained. A *Snapshot view takes a lock-free fast path
// over its flat adjacency arrays; any other view goes through the
// GraphView interface. Both paths produce bitwise-identical weights.
func FullSubgraph(g GraphView, opts FullOptions) *Subgraph {
	var nodes []NodeID
	if opts.Nodes != nil {
		nodes = append([]NodeID(nil), opts.Nodes...)
	} else {
		for _, id := range g.Nodes() {
			if opts.Filter == nil || opts.Filter(id) {
				nodes = append(nodes, id)
			}
		}
	}
	sg := &Subgraph{
		Nodes:      nodes,
		TypedEdges: make([][]LocalEdge, g.NumEdgeTypes()),
		Hops:       make([]int, len(nodes)),
	}
	masked := opts.Mask.masked()
	if s, ok := g.(*Snapshot); ok {
		s.fillFullSubgraph(sg, masked, opts.RawWeights)
	} else {
		fillFullSubgraphView(g, sg, masked, opts.RawWeights)
	}
	return sg
}

// fillFullSubgraphView materializes the typed edges through the
// GraphView interface. The per-edge arithmetic — w = weight/√(du·dv)
// with full-graph typed weighted degrees — matches SampleView and the
// snapshot fast path exactly.
func fillFullSubgraphView(g GraphView, sg *Subgraph, masked int, rawWeights bool) {
	index := make(map[NodeID]int, len(sg.Nodes))
	for i, id := range sg.Nodes {
		index[id] = i
	}
	for t := 0; t < g.NumEdgeTypes(); t++ {
		if t == masked {
			continue
		}
		for i, u := range sg.Nodes {
			du := g.TypedWeightedDegree(u, EdgeType(t))
			if du == 0 {
				continue
			}
			for _, nb := range g.NeighborsByType(u, EdgeType(t)) {
				j, ok := index[nb.Node]
				if !ok {
					continue
				}
				w := nb.Weight
				if !rawWeights {
					dv := g.TypedWeightedDegree(nb.Node, EdgeType(t))
					if dv == 0 {
						continue
					}
					w = nb.Weight / math.Sqrt(du*dv)
				}
				sg.TypedEdges[t] = append(sg.TypedEdges[t], LocalEdge{Src: i, Dst: j, Weight: w})
			}
		}
	}
}

// fillFullSubgraph is the snapshot fast path: it walks the flat
// per-type adjacency arrays directly — no Neighbor slice allocation, no
// per-neighbor map lookup — and translates the neighbour rows it reads
// to local indices through a dense table. Iteration order (types outer,
// local rows in order, neighbors ascending by ID) and weight arithmetic
// are identical to fillFullSubgraphView.
func (s *Snapshot) fillFullSubgraph(sg *Subgraph, masked int, rawWeights bool) {
	rows := make([]int32, len(sg.Nodes))
	local := make([]int32, len(s.ids))
	for i := range local {
		local[i] = -1
	}
	for li, id := range sg.Nodes {
		rows[li] = s.row(id)
		if rows[li] >= 0 {
			local[rows[li]] = int32(li)
		}
	}
	for t := 0; t < s.numTypes; t++ {
		if t == masked {
			continue
		}
		for li, r := range rows {
			if r < 0 {
				continue
			}
			du := s.deg[t][r]
			if du == 0 {
				continue
			}
			lo, hi := s.offsets[t][r], s.offsets[t][r+1]
			for k := lo; k < hi; k++ {
				vr := s.nbr[t][k]
				lj := local[vr]
				if lj < 0 {
					continue
				}
				w := s.wts[t][k]
				if !rawWeights {
					dv := s.deg[t][vr]
					if dv == 0 {
						continue
					}
					w = s.wts[t][k] / math.Sqrt(du*dv)
				}
				sg.TypedEdges[t] = append(sg.TypedEdges[t], LocalEdge{Src: li, Dst: int(lj), Weight: w})
			}
		}
	}
}
