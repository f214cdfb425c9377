package gnn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// fullWorld builds a random three-type graph over n nodes with the rows
// a full-graph compile must get right: neighbours shared across two and
// across three types, a hub past the serving cap, and an isolated node.
// degree sets the random edges per node.
func fullWorld(seed uint64, n, degree int) *graph.Snapshot {
	rng := tensor.NewRNG(seed)
	g := graph.New(3)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	for e := 0; e < degree*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdgeWeight(graph.EdgeType(rng.Intn(3)), graph.NodeID(u), graph.NodeID(v), rng.Float64()+0.05, never)
		}
	}
	for t := 0; t < 2; t++ {
		_ = g.AddEdgeWeight(graph.EdgeType(t), 1, 2, rng.Float64()+0.05, never)
	}
	for t := 0; t < 3; t++ {
		_ = g.AddEdgeWeight(graph.EdgeType(t), 3, 4, rng.Float64()+0.05, never)
	}
	for v := 10; v < 50; v++ {
		_ = g.AddEdgeWeight(0, 5, graph.NodeID(v), rng.Float64()+0.05, never)
	}
	g.AddNode(graph.NodeID(n + 7))
	return g.Snapshot()
}

// fullNodes lists snap's nodes in shuffled order, drops a few (so edges
// leaving the set are cut), and puts an ID the snapshot lacks in the
// middle. The rows' sources then arrive out of order.
func fullNodes(snap *graph.Snapshot, seed uint64) []graph.NodeID {
	nodes := slices.Clone(snap.Nodes())
	rng := tensor.NewRNG(seed + 100)
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	nodes = nodes[:len(nodes)-4]
	return slices.Insert(nodes, len(nodes)/2, 99999)
}

// sameCSR fails unless a and b hold the same pattern and bit-identical
// weights.
func sameCSR(t *testing.T, what string, a, b *tensor.CSR[float64]) {
	t.Helper()
	if a.NRows != b.NRows || a.NCols != b.NCols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		t.Fatalf("%s: pattern differs", what)
	}
	for p := range a.Weights {
		if math.Float64bits(a.Weights[p]) != math.Float64bits(b.Weights[p]) {
			t.Fatalf("%s: entry %d weight %v, want %v", what, p, a.Weights[p], b.Weights[p])
		}
	}
}

// sameCSR32 is sameCSR for the float32 mirrors.
func sameCSR32(t *testing.T, what string, a, b *tensor.CSR[float32]) {
	t.Helper()
	if !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		t.Fatalf("%s: float32 mirror pattern differs", what)
	}
	for p := range a.Weights {
		if math.Float32bits(a.Weights[p]) != math.Float32bits(b.Weights[p]) {
			t.Fatalf("%s: float32 mirror entry %d weight %v, want %v", what, p, a.Weights[p], b.Weights[p])
		}
	}
}

// isMirror fails unless q is c's float32 mirror: c's own RowPtr and
// ColIdx arrays, and weights that are bitwise float32 of c's.
func isMirror(t *testing.T, what string, c *tensor.CSR[float64], q *tensor.CSR[float32]) {
	t.Helper()
	if unsafe.SliceData(q.RowPtr) != unsafe.SliceData(c.RowPtr) || len(q.RowPtr) != len(c.RowPtr) ||
		unsafe.SliceData(q.ColIdx) != unsafe.SliceData(c.ColIdx) || len(q.ColIdx) != len(c.ColIdx) {
		t.Fatalf("%s: float32 mirror does not share the float64 matrix's RowPtr and ColIdx", what)
	}
	for p, w := range c.Weights {
		if math.Float32bits(q.Weights[p]) != math.Float32bits(float32(w)) {
			t.Fatalf("%s: float32 mirror entry %d weight %v, want float32(%v)", what, p, q.Weights[p], w)
		}
	}
}

// gatOracle is GAT's edge bookkeeping built from the merged edge list,
// the way it was built before the batch read it off MergedRW: the edges
// in (src, dst) order, then the self-loops, grouped by destination.
func gatOracle(merged []graph.LocalEdge, n int) (src, dst []int, segments [][]int) {
	for _, e := range merged {
		src, dst = append(src, e.Src), append(dst, e.Dst)
	}
	for i := 0; i < n; i++ {
		src, dst = append(src, i), append(dst, i)
	}
	segments = make([][]int, n)
	for e, d := range dst {
		segments[d] = append(segments[d], e)
	}
	return src, dst, segments
}

// TestFullBatchMatchesNewBatch pins FullBatch's matrices, every
// aggregation and their float32 mirrors, bitwise to NewBatch's over
// graph.FullSubgraph with the same options, and GAT's edge structure on
// both to the one built from the merged edge list. The large world's rows
// span many words of the writer's bitmap.
func TestFullBatchMatchesNewBatch(t *testing.T) {
	aggs := []Agg{TypedMean(0), TypedMean(1), TypedMean(2), MergedRW, MergedMean, MergedWeightedMean}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, size := range [][2]int{{60, 5}, {3000, 2}} {
			testFullBatch(t, aggs, seed, fullWorld(seed, size[0], size[1]))
		}
	}
}

// testFullBatch compares FullBatch with the reference over snap's nodes
// shuffled (see fullNodes) and in ID order, normalized and raw, with and
// without a masked type.
func testFullBatch(t *testing.T, aggs []Agg, seed uint64, snap *graph.Snapshot) {
	t.Helper()
	nodes := fullNodes(snap, seed)
	for _, opts := range []graph.FullOptions{
		{Nodes: nodes},
		{Nodes: nodes, Mask: graph.MaskEdgeType(1)},
		{Nodes: nodes, RawWeights: true},
		{Nodes: nodes, RawWeights: true, Mask: graph.MaskEdgeType(0)},
		{},
	} {
		name := fmt.Sprintf("seed %d, %d nodes: raw=%v mask=%d nodes=%d", seed, snap.NumNodes(), opts.RawWeights, opts.Mask, len(opts.Nodes))
		ref := NewBatch(graph.FullSubgraph(snap, opts), nil)
		got := FullBatch(snap, nil, opts)
		if got.NumNodes != ref.NumNodes || got.NumEdgeTypes() != ref.NumEdgeTypes() {
			t.Fatalf("%s: %d nodes, %d types; want %d, %d", name, got.NumNodes, got.NumEdgeTypes(), ref.NumNodes, ref.NumEdgeTypes())
		}
		for _, a := range aggs {
			what := fmt.Sprintf("%s agg %d", name, a)
			sameCSR(t, what, got.CSR(a), ref.CSR(a))
			gq, rq := got.CSR32For(got.CSR(a)), ref.CSR32For(ref.CSR(a))
			sameCSR32(t, what, gq, rq)
			isMirror(t, what+" FullBatch", got.CSR(a), gq)
			isMirror(t, what+" NewBatch", ref.CSR(a), rq)
		}
		src, dst, segments := gatOracle(mergeEdges(ref.TypedEdges), ref.NumNodes)
		for _, b := range []*Batch{got, ref} {
			st := b.gatStruct()
			if !slices.Equal(st.src, src) || !slices.Equal(st.dst, dst) {
				t.Fatalf("%s: GAT edge list differs from the merged edge list's", name)
			}
			for i := range segments {
				if !slices.Equal(st.segments[i], segments[i]) {
					t.Fatalf("%s: GAT segment %d is %v, want %v", name, i, st.segments[i], segments[i])
				}
			}
		}
		got.Release()
		ref.Release()
	}
}
