package graph

import "slices"

// fullgraph.go compiles a whole node set rather than one target's sample.
// One snapshot writer compiles cone and full-graph batches: FullCSR seeds
// the walk scratch SampleCSR uses with every given node, then runs
// SampleCSR's own row writer, so the full-graph scorers (sweep, lifecycle
// shadow, embed build and refresh, eval batches) and an audit's cone share
// one copy of the §III-A arithmetic and the type merge. FullSubgraph is
// the edge-list reference FullCSR is tested against.

// FullOptions controls full-graph extraction.
type FullOptions struct {
	// Nodes, when non-nil, fixes the node set and row order; the IDs
	// must be distinct. Callers with an established alignment between
	// rows and feature vectors (eval's Assembled.Nodes) pass it so
	// activations line up with their feature matrix. Nil selects every
	// node of the view in sorted-ID order.
	Nodes []NodeID
	// RawWeights disables the §III-A symmetric normalization (ablation
	// benches).
	RawWeights bool
	// Mask omits all edges of one type (Fig. 7 edge ablation).
	Mask EdgeMask
}

// FullSubgraph builds a Subgraph over the given nodes with every
// (unmasked) typed edge among them, through the snapshot's per-node
// accessors, with SampleView's edge order and arithmetic
// (addInducedEdges). Edges to nodes outside the set are dropped, so the
// result is self-contained.
func FullSubgraph(s *Snapshot, opts FullOptions) *Subgraph {
	nodes := opts.Nodes
	if nodes == nil {
		nodes = s.Nodes()
	}
	sg := &Subgraph{Nodes: append([]NodeID(nil), nodes...), Hops: make([]int, len(nodes))}
	index := make(map[NodeID]int, len(nodes))
	for i, id := range nodes {
		index[id] = i
	}
	sg.addInducedEdges(s, index, opts.Mask.masked(), opts.RawWeights)
	return sg
}

// FullCSR writes the matrices forms name over opts.Nodes (nil: every
// node, in ID order) into out, as SampleCSR writes a cone's: every node
// is live, nothing is expanded, capped or filtered. Row j lists j's
// in-edges from the other given nodes, sources ascending by position in
// the node list, so the matrices are bitwise those gnn.NewBatch compiles
// from FullSubgraph with the same options. An ID absent from the
// snapshot gets a row with no edges.
func (s *Snapshot) FullCSR(opts FullOptions, forms []CSRForm, out *ConeCSR) {
	nodes := opts.Nodes
	if nodes == nil {
		nodes = s.ids
	}
	sc := acquireSampleScratch(len(s.ids))
	defer sc.release()
	w := sampleWalk{s: s, sc: sc, raw: opts.RawWeights, masked: opts.Mask.masked()}
	sc.rows, sc.live = sc.rows[:0], sc.live[:0]
	for li, id := range nodes {
		r := s.row(id)
		if r >= 0 {
			sc.touched = append(sc.touched, r)
			sc.local[r] = int32(li) + 1
		}
		sc.rows = append(sc.rows, r)
		sc.live = append(sc.live, li)
	}
	out.Nodes = append(out.Nodes[:0], nodes...)

	// Size the arrays once, from the given rows' adjacency: growing them
	// row by row would allocate several times a full graph's entries.
	nnz := 0
	for _, f := range forms {
		for t := range s.numTypes {
			if f.Type != AllTypes && f.Type != t {
				continue
			}
			for _, r := range sc.rows {
				if r >= 0 {
					nnz += int(s.offsets[t][r+1] - s.offsets[t][r])
				}
			}
		}
		if f.SelfLoop {
			nnz += len(nodes)
		}
	}
	out.colIdx = slices.Grow(out.colIdx[:0], nnz)
	out.weights = slices.Grow(out.weights[:0], nnz)
	w.writeCSR(forms, out)
}
