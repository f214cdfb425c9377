package graph

import (
	"reflect"
	"testing"
	"time"

	"turbo/internal/tensor"
)

// fullGraph builds a random multigraph with non-expiring edges so the
// live store, its snapshot and any generic view expose the identical
// edge set (randomGraph's expiries would make liveness time-dependent).
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

// viewOnly hides the concrete *Snapshot type so FullSubgraph takes the
// generic GraphView path instead of the flat-array fast path.
type viewOnly struct{ GraphView }

// TestFullSubgraphPathsAgree pins the snapshot fast path, the generic
// path over the same snapshot, and the generic path over the live store
// to bitwise-identical subgraphs for raw and normalized weights and for
// edge-type masking.
func TestFullSubgraphPathsAgree(t *testing.T) {
	g := fullGraph(3, 40, 400)
	s := g.Snapshot()
	nodes := s.Nodes()
	for _, raw := range []bool{false, true} {
		for _, mask := range []EdgeMask{NoMask, MaskEdgeType(1)} {
			opts := FullOptions{Nodes: nodes, RawWeights: raw, Mask: mask}
			fast := FullSubgraph(s, opts)
			generic := FullSubgraph(viewOnly{s}, opts)
			live := FullSubgraph(g, opts)
			for _, sg := range []*Subgraph{fast, generic, live} {
				if len(sg.TypedEdges[1]) != 0 && mask.masked() == 1 {
					t.Fatalf("masked type still has edges")
				}
			}
			if !reflect.DeepEqual(fast.Nodes, generic.Nodes) || !reflect.DeepEqual(fast.Nodes, live.Nodes) {
				t.Fatalf("raw=%v node order differs across paths", raw)
			}
			if !reflect.DeepEqual(fast.TypedEdges, generic.TypedEdges) {
				t.Fatalf("raw=%v mask=%d: fast path edges differ from generic path", raw, mask.masked())
			}
			if !reflect.DeepEqual(fast.TypedEdges, live.TypedEdges) {
				t.Fatalf("raw=%v mask=%d: snapshot edges differ from live view", raw, mask.masked())
			}
		}
	}
}

// TestFullSubgraphDefaultsAndFilter checks the default node set (every
// node in sorted-ID order), the Filter restriction, and that a filtered
// export equals the equivalent explicit-Nodes export.
func TestFullSubgraphDefaultsAndFilter(t *testing.T) {
	g := fullGraph(7, 30, 250)
	s := g.Snapshot()
	all := FullSubgraph(s, FullOptions{})
	if !reflect.DeepEqual(all.Nodes, s.Nodes()) {
		t.Fatalf("default node set is not the sorted snapshot node list")
	}
	even := func(id NodeID) bool { return id%2 == 0 }
	filtered := FullSubgraph(s, FullOptions{Filter: even})
	var want []NodeID
	for _, id := range s.Nodes() {
		if even(id) {
			want = append(want, id)
		}
	}
	if !reflect.DeepEqual(filtered.Nodes, want) {
		t.Fatalf("filtered nodes %v, want %v", filtered.Nodes, want)
	}
	explicit := FullSubgraph(s, FullOptions{Nodes: want})
	if !reflect.DeepEqual(filtered.TypedEdges, explicit.TypedEdges) {
		t.Fatalf("filter path and explicit-Nodes path disagree")
	}
	for t2, edges := range filtered.TypedEdges {
		for _, e := range edges {
			if filtered.Nodes[e.Src]%2 != 0 || filtered.Nodes[e.Dst]%2 != 0 {
				t.Fatalf("type %d edge %v escapes the filtered set", t2, e)
			}
		}
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
