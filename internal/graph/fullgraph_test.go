package graph

import (
	"math"
	"reflect"
	"testing"
	"time"

	"turbo/internal/tensor"
)

// fullGraph builds a random multigraph with non-expiring edges, so the
// live store and its snapshot hold the identical edge set (randomGraph's
// expiries would make liveness time-dependent).
func fullGraph(seed uint64, nodes, edges int) *Graph {
	rng := tensor.NewRNG(seed | 1)
	g := New(3)
	exp := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nodes; i++ {
		g.AddNode(NodeID(i))
	}
	for i := 0; i < edges; i++ {
		u := NodeID(rng.Intn(nodes))
		v := NodeID(rng.Intn(nodes))
		if u == v {
			continue
		}
		_ = g.AddEdgeWeight(EdgeType(rng.Intn(3)), u, v, rng.Float64()+0.01, exp)
	}
	g.AddNode(NodeID(nodes + 5)) // isolated node: rows with zero degree
	return g
}

// TestFullSubgraphPathsAgree pins FullSubgraph over a snapshot to the
// subgraph written straight from the live graph's checkpoint state
// (liveOf), bitwise, for raw and normalized weights and for edge-type
// masking: every unmasked edge among the nodes, grouped by type, then by
// source in node order, then by ascending neighbour ID. The normalized
// weights divide by the snapshot's typed degrees, which
// TestSnapshotMatchesLiveView checks against liveOf's sums.
func TestFullSubgraphPathsAgree(t *testing.T) {
	g := fullGraph(3, 40, 400)
	s := g.Snapshot()
	l := liveOf(g)
	nodes := s.Nodes()
	index := make(map[NodeID]int, len(nodes))
	for i, id := range nodes {
		index[id] = i
	}
	for _, raw := range []bool{false, true} {
		for _, mask := range []EdgeMask{NoMask, MaskEdgeType(1)} {
			sg := FullSubgraph(s, FullOptions{Nodes: nodes, RawWeights: raw, Mask: mask})
			if len(sg.TypedEdges[1]) != 0 && mask.masked() == 1 {
				t.Fatalf("masked type still has edges")
			}
			if !reflect.DeepEqual(sg.Nodes, nodes) {
				t.Fatalf("raw=%v node order differs from the given nodes", raw)
			}
			want := make([][]LocalEdge, len(l.nbrs))
			for typ, byNode := range l.nbrs {
				if typ == mask.masked() {
					continue
				}
				et := EdgeType(typ)
				for li, u := range nodes {
					for _, nb := range byNode[u] {
						w := nb.Weight
						if !raw {
							w /= math.Sqrt(s.TypedWeightedDegree(u, et) * s.TypedWeightedDegree(nb.Node, et))
						}
						want[typ] = append(want[typ], LocalEdge{Src: li, Dst: index[nb.Node], Weight: w})
					}
				}
			}
			if !reflect.DeepEqual(sg.TypedEdges, want) {
				t.Fatalf("raw=%v mask=%d: snapshot edges differ from the live state", raw, mask.masked())
			}
		}
	}
}

// TestFullSubgraphDefaultsAndFilter checks the default node set (every
// node in sorted-ID order) and that it equals the explicit-Nodes export
// of the same list.
func TestFullSubgraphDefaultsAndFilter(t *testing.T) {
	g := fullGraph(7, 30, 250)
	s := g.Snapshot()
	all := FullSubgraph(s, FullOptions{})
	if !reflect.DeepEqual(all.Nodes, s.Nodes()) {
		t.Fatalf("default node set is not the sorted snapshot node list")
	}
	explicit := FullSubgraph(s, FullOptions{Nodes: s.Nodes()})
	if !reflect.DeepEqual(all.TypedEdges, explicit.TypedEdges) {
		t.Fatalf("default path and explicit-Nodes path disagree")
	}
}

// TestFullSubgraphCallerOrder verifies a caller-supplied row order is
// preserved and the local indices stay consistent: reversing the node
// list must yield the same edge set under the row permutation.
func TestFullSubgraphCallerOrder(t *testing.T) {
	g := fullGraph(11, 20, 150)
	s := g.Snapshot()
	nodes := s.Nodes()
	rev := make([]NodeID, len(nodes))
	for i, id := range nodes {
		rev[len(nodes)-1-i] = id
	}
	fwd := FullSubgraph(s, FullOptions{Nodes: nodes})
	bwd := FullSubgraph(s, FullOptions{Nodes: rev})
	if !reflect.DeepEqual(bwd.Nodes, rev) {
		t.Fatalf("caller node order not preserved")
	}
	type edgeKey struct {
		t    int
		u, v NodeID
		w    float64
	}
	collect := func(sg *Subgraph) map[edgeKey]int {
		m := make(map[edgeKey]int)
		for t2, edges := range sg.TypedEdges {
			for _, e := range edges {
				m[edgeKey{t2, sg.Nodes[e.Src], sg.Nodes[e.Dst], e.Weight}]++
			}
		}
		return m
	}
	if !reflect.DeepEqual(collect(fwd), collect(bwd)) {
		t.Fatalf("edge multiset changed under row permutation")
	}
}
