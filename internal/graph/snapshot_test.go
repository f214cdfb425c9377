package graph

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"turbo/internal/tensor"
)

// randomGraph builds a random multigraph for equivalence checks.
func randomGraph(seed uint64, nodes, edges int) *Graph {
	rng := tensor.NewRNG(seed | 1)
	g := New(3)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < edges; i++ {
		u := NodeID(rng.Intn(nodes))
		v := NodeID(rng.Intn(nodes))
		if u == v {
			continue
		}
		exp := base.Add(time.Duration(rng.Intn(200)) * time.Hour)
		_ = g.AddEdgeWeight(EdgeType(rng.Intn(3)), u, v, rng.Float64()+0.01, exp)
	}
	g.AddNode(NodeID(nodes + 5)) // one isolated registered node
	return g
}

// TestSnapshotMatchesLiveView: every GraphView accessor must agree
// between the live graph and a snapshot taken from it.
func TestSnapshotMatchesLiveView(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 12, 80)
		s := g.Snapshot()
		if !reflect.DeepEqual(g.Nodes(), s.Nodes()) {
			t.Logf("nodes differ")
			return false
		}
		if g.NumNodes() != s.NumNodes() || g.NumEdges() != s.NumEdges() {
			return false
		}
		if !reflect.DeepEqual(g.EdgeCountByType(), s.EdgeCountByType()) {
			return false
		}
		if !reflect.DeepEqual(g.Edges(), s.Edges()) {
			return false
		}
		if !reflect.DeepEqual(g.Stats(), s.Stats()) {
			return false
		}
		for _, u := range g.Nodes() {
			if !reflect.DeepEqual(g.Neighbors(u), s.Neighbors(u)) {
				return false
			}
			if g.Degree(u) != s.Degree(u) {
				return false
			}
			if math.Abs(g.WeightedDegree(u)-s.WeightedDegree(u)) > 1e-12 {
				return false
			}
			for typ := 0; typ < 3; typ++ {
				et := EdgeType(typ)
				if !reflect.DeepEqual(g.NeighborsByType(u, et), s.NeighborsByType(u, et)) {
					return false
				}
				if math.Abs(g.TypedWeightedDegree(u, et)-s.TypedWeightedDegree(u, et)) > 1e-12 {
					return false
				}
				for _, v := range g.Nodes() {
					if math.Abs(g.EdgeWeight(et, u, v)-s.EdgeWeight(et, u, v)) > 1e-12 {
						return false
					}
					if math.Abs(g.NormalizedWeight(et, u, v)-s.NormalizedWeight(et, u, v)) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// sameSample reports whether two samples agree on everything a reader
// sees (a type with no edges may be nil or empty).
func sameSample(a, b *Subgraph) bool {
	if !reflect.DeepEqual(a.Nodes, b.Nodes) || !reflect.DeepEqual(a.Hops, b.Hops) ||
		!reflect.DeepEqual(a.Index, b.Index) || a.Layers != b.Layers || len(a.TypedEdges) != len(b.TypedEdges) {
		return false
	}
	for t := range a.TypedEdges {
		if !slices.Equal(a.TypedEdges[t], b.TypedEdges[t]) {
			return false
		}
	}
	return true
}

// TestSnapshotSampleMatchesReference: the snapshot's in-place walk must
// return what the accessor-based SampleView returns, from the live graph
// and from the snapshot itself, for every option including the cone cut.
func TestSnapshotSampleMatchesReference(t *testing.T) {
	for _, seed := range []uint64{7, 8, 9} {
		g := randomGraph(seed, 24, 160)
		s := g.Snapshot()
		even := func(n NodeID) bool { return n%2 == 0 }
		for _, u := range append(g.Nodes(), 999) { // 999 is unregistered
			for _, base := range []SampleOptions{
				{Hops: 2},
				{Hops: 2, MaxNeighbors: 3},
				{Hops: 2, MaxNeighbors: 2, Filter: even},
				{Hops: 3, RawWeights: true},
				{Hops: 2, Mask: MaskEdgeType(1)},
				{Hops: 1, MaxNeighbors: 2},
			} {
				for layers := 0; layers <= 3; layers++ {
					opts := base
					opts.Layers = layers
					want := SampleView(s, u, opts)
					if got := s.Sample(u, opts); !sameSample(got, want) {
						t.Fatalf("seed %d node %d %+v: in-place walk differs from SampleView", seed, u, opts)
					}
					if got := g.Sample(u, opts); !sameSample(got, want) {
						t.Fatalf("seed %d node %d %+v: live graph differs from snapshot", seed, u, opts)
					}
					// A random draw consumes the generator identically.
					opts.MaxNeighbors = 2
					opts.RNG = tensor.NewRNG(seed)
					want = SampleView(s, u, opts)
					opts.RNG = tensor.NewRNG(seed)
					if got := s.Sample(u, opts); !sameSample(got, want) {
						t.Fatalf("seed %d node %d %+v: random draw differs from SampleView", seed, u, opts)
					}
				}
			}
		}
	}
}

// TestSampleConeCut pins what Layers keeps, on the case that breaks a
// cut by BFS label: target 0 has four type-0 neighbors and a cap of
// three, so node 4 is not expanded at hop 1 and re-enters at hop 2
// through node 1, yet it is adjacent to the target in the induced edges.
func TestSampleConeCut(t *testing.T) {
	g := New(2)
	exp := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	for v, w := range map[NodeID]float64{1: 4, 2: 3, 3: 2, 4: 1} {
		_ = g.AddEdgeWeight(0, 0, v, w, exp)
	}
	_ = g.AddEdgeWeight(1, 1, 4, 1, exp) // 4 re-enters at hop 2
	_ = g.AddEdgeWeight(1, 2, 5, 1, exp) // 5 is two induced hops away
	_ = g.AddEdgeWeight(0, 5, 4, 1, exp)
	_ = g.AddEdgeWeight(0, 5, 6, 1, exp) // 6 is out of reach
	s := g.Snapshot()

	full := s.Sample(0, SampleOptions{Hops: 2, MaxNeighbors: 3})
	if got := full.Hops[full.Index[4]]; got != 2 {
		t.Fatalf("node 4 labeled hop %d, want 2 (the cap must leave it to re-enter)", got)
	}
	if _, ok := full.Index[6]; ok {
		t.Fatal("node 6 sampled")
	}
	type edge struct {
		t        int
		src, dst NodeID
	}
	edges := func(sg *Subgraph) map[edge]float64 {
		m := make(map[edge]float64)
		for t, es := range sg.TypedEdges {
			for _, e := range es {
				m[edge{t, sg.Nodes[e.Src], sg.Nodes[e.Dst]}] = e.Weight
			}
		}
		return m
	}
	all := edges(full)
	for layers, liveDst := range map[int][]NodeID{
		1: {0},
		2: {0, 1, 2, 3, 4},
		3: {0, 1, 2, 3, 4, 5},
	} {
		cut := s.Sample(0, SampleOptions{Hops: 2, MaxNeighbors: 3, Layers: layers})
		if cut.Layers != layers || !reflect.DeepEqual(cut.Nodes, full.Nodes) {
			t.Fatalf("layers %d: depth %d, nodes %v (full %v)", layers, cut.Layers, cut.Nodes, full.Nodes)
		}
		want := make(map[edge]float64)
		for e, w := range all {
			if slices.Contains(liveDst, e.dst) {
				want[e] = w
			}
		}
		if got := edges(cut); !reflect.DeepEqual(got, want) {
			t.Fatalf("layers %d kept %v, want %v", layers, got, want)
		}
	}
	if n3, nFull := s.Sample(0, SampleOptions{Hops: 2, MaxNeighbors: 3, Layers: 3}).NumEdges(), full.NumEdges(); n3 != nFull {
		t.Fatalf("a 3-layer cut of a 2-hop sample kept %d of %d edges, want all", n3, nFull)
	}
}

// TestSnapshotHopScansMatchLive checks the Fig. 4 scan helpers agree.
func TestSnapshotHopScansMatchLive(t *testing.T) {
	g := randomGraph(11, 15, 60)
	s := g.Snapshot()
	isFraud := func(n NodeID) bool { return n%3 == 0 }
	for _, u := range g.Nodes() {
		for only := -1; only < 3; only++ {
			if !reflect.DeepEqual(g.FraudRatioByHop(u, 3, only, isFraud), s.FraudRatioByHop(u, 3, only, isFraud)) {
				t.Fatalf("fraud ratio differs at %d type %d", u, only)
			}
		}
		// Hop sets are maps, so summation order differs run to run;
		// compare the means with a tolerance.
		gm, sm := g.MeanDegreeByHop(u, 3, true), s.MeanDegreeByHop(u, 3, true)
		for h := range gm {
			if math.Abs(gm[h]-sm[h]) > 1e-9 {
				t.Fatalf("mean degree differs at %d hop %d: %v vs %v", u, h+1, gm[h], sm[h])
			}
		}
	}
}

// TestSnapshotIsImmutable: mutations after Snapshot() must not leak into
// the published epoch (copy-on-write semantics).
func TestSnapshotIsImmutable(t *testing.T) {
	g := New(2)
	_ = g.AddEdgeWeight(0, 1, 2, 1, never)
	s := g.Snapshot()
	_ = g.AddEdgeWeight(0, 1, 2, 5, never) // accumulate onto existing edge
	_ = g.AddEdgeWeight(1, 1, 3, 2, never) // brand-new edge
	g.Prune(never.Add(time.Hour))          // drop everything from the live graph

	if w := s.EdgeWeight(0, 1, 2); w != 1 {
		t.Fatalf("snapshot edge weight mutated: %v", w)
	}
	if s.NumEdges() != 1 || s.EdgeWeight(1, 1, 3) != 0 {
		t.Fatal("snapshot gained edges written after publication")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("live graph should be pruned empty, has %d", g.NumEdges())
	}
}

// TestSnapshotEpochMonotonic: publication numbers strictly increase.
func TestSnapshotEpochMonotonic(t *testing.T) {
	g := New(1)
	s1 := g.Snapshot()
	_ = g.AddEdgeWeight(0, 1, 2, 1, never)
	s2 := g.Snapshot()
	if s2.Epoch() <= s1.Epoch() {
		t.Fatalf("epochs not increasing: %d then %d", s1.Epoch(), s2.Epoch())
	}
}

// TestPruneDropsIsolatedAdjacencyKeepsRegisteredNodes documents the
// registered-node semantics of Prune: adjacency entries of nodes whose
// edges all expired are removed from the shard indexes (memory reclaim,
// observable as empty neighbor lists), while the nodes themselves stay
// registered — isolated users are still classified.
func TestPruneDropsIsolatedAdjacencyKeepsRegisteredNodes(t *testing.T) {
	g := New(2)
	soon := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	_ = g.AddEdgeWeight(0, 1, 2, 1, soon)  // expires
	_ = g.AddEdgeWeight(1, 3, 4, 1, never) // survives
	g.AddNode(9)

	if n := g.Prune(soon.Add(time.Hour)); n != 1 {
		t.Fatalf("dropped %d want 1", n)
	}
	// Nodes 1 and 2 are now isolated: no adjacency left in any shard...
	for _, u := range []NodeID{1, 2} {
		if ns := g.Neighbors(u); len(ns) != 0 {
			t.Fatalf("node %d still has neighbors %v after prune", u, ns)
		}
		if sh := &g.shards[shardOf(u)]; sh.adj[u] != nil {
			t.Fatalf("node %d adjacency not dropped from shard index", u)
		}
	}
	// ...but every node remains registered.
	for _, u := range []NodeID{1, 2, 3, 4, 9} {
		if !g.HasNode(u) {
			t.Fatalf("node %d lost registration after prune", u)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes %d want 5", g.NumNodes())
	}
	// The surviving edge and its degree cache are intact.
	if g.TypedWeightedDegree(3, 1) != 1 || g.EdgeWeight(1, 3, 4) != 1 {
		t.Fatal("surviving edge damaged by prune")
	}
}
