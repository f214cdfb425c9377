package graph

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"sync"
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

// liveState is the live graph's adjacency rebuilt from what a
// checkpoint persists of it, Nodes() and Edges(): per type, each node's
// neighbours in ascending ID order and its typed weighted degree summed
// over them. It is the oracle the snapshot's per-node readers are
// checked against. Its degrees are summed in edge order, not in the
// order the live graph accumulated them, so they agree to rounding.
type liveState struct {
	nodes []NodeID
	nbrs  []map[NodeID][]Neighbor
	deg   []map[NodeID]float64
}

func liveOf(g *Graph) liveState {
	l := liveState{nodes: g.Nodes()}
	for range g.NumEdgeTypes() {
		l.nbrs = append(l.nbrs, map[NodeID][]Neighbor{})
		l.deg = append(l.deg, map[NodeID]float64{})
	}
	for _, e := range g.Edges() {
		l.nbrs[e.Type][e.U] = append(l.nbrs[e.Type][e.U], Neighbor{Node: e.V, Weight: e.Weight})
		l.nbrs[e.Type][e.V] = append(l.nbrs[e.Type][e.V], Neighbor{Node: e.U, Weight: e.Weight})
		l.deg[e.Type][e.U] += e.Weight
		l.deg[e.Type][e.V] += e.Weight
	}
	for _, byNode := range l.nbrs {
		for _, ns := range byNode {
			slices.SortFunc(ns, func(a, b Neighbor) int { return cmp.Compare(a.Node, b.Node) })
		}
	}
	return l
}

// neighbors returns u's distinct neighbours across all types, sorted,
// or nil.
func (l liveState) neighbors(u NodeID) []NodeID {
	var out []NodeID
	for _, byNode := range l.nbrs {
		for _, nb := range byNode[u] {
			out = append(out, nb.Node)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (l liveState) weightedDegree(u NodeID) float64 {
	var d float64
	for _, deg := range l.deg {
		d += deg[u]
	}
	return d
}

func (l liveState) weight(t EdgeType, u, v NodeID) float64 {
	for _, nb := range l.nbrs[t][u] {
		if nb.Node == v {
			return nb.Weight
		}
	}
	return 0
}

func (l liveState) normalizedWeight(t EdgeType, u, v NodeID) float64 {
	w := l.weight(t, u, v)
	if w == 0 {
		return 0
	}
	return w / math.Sqrt(l.deg[t][u]*l.deg[t][v])
}

// hopSets returns the nodes first reached at each hop 1..maxHops from
// u, walking only type onlyType when it is not negative.
func (l liveState) hopSets(u NodeID, maxHops, onlyType int) [][]NodeID {
	seen := map[NodeID]bool{u: true}
	frontier := []NodeID{u}
	sets := make([][]NodeID, maxHops)
	for h := range sets {
		for _, x := range frontier {
			for t, byNode := range l.nbrs {
				if onlyType >= 0 && t != onlyType {
					continue
				}
				for _, nb := range byNode[x] {
					if !seen[nb.Node] {
						seen[nb.Node] = true
						sets[h] = append(sets[h], nb.Node)
					}
				}
			}
		}
		frontier = sets[h]
	}
	return sets
}

// TestSnapshotMatchesLiveView: every reader of a snapshot must agree
// with the live graph it was taken from: the counters and listings the
// live graph serves directly, and the per-node adjacency, degrees and
// weights of the state a checkpoint persists (liveOf).
func TestSnapshotMatchesLiveView(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed, 12, 80)
		s := g.Snapshot()
		l := liveOf(g)
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
		for _, u := range l.nodes {
			if !s.HasNode(u) {
				return false
			}
			if !reflect.DeepEqual(l.neighbors(u), s.Neighbors(u)) {
				return false
			}
			if len(l.neighbors(u)) != s.Degree(u) {
				return false
			}
			if math.Abs(l.weightedDegree(u)-s.WeightedDegree(u)) > 1e-12 {
				return false
			}
			for typ := 0; typ < 3; typ++ {
				et := EdgeType(typ)
				if !reflect.DeepEqual(l.nbrs[typ][u], s.NeighborsByType(u, et)) {
					return false
				}
				if math.Abs(l.deg[typ][u]-s.TypedWeightedDegree(u, et)) > 1e-12 {
					return false
				}
				for _, v := range l.nodes {
					if math.Abs(l.weight(et, u, v)-s.EdgeWeight(et, u, v)) > 1e-12 {
						return false
					}
					if math.Abs(l.normalizedWeight(et, u, v)-s.NormalizedWeight(et, u, v)) > 1e-12 {
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
		a.Layers != b.Layers || len(a.TypedEdges) != len(b.TypedEdges) {
		return false
	}
	for t := range a.TypedEdges {
		if !slices.Equal(a.TypedEdges[t], b.TypedEdges[t]) {
			return false
		}
	}
	return true
}

// tiedGraph is randomGraph with small integer weights, so rows hold
// many equal weights and the cap order falls back to ascending ID. Node
// 0 is a hub: its type-0 and type-1 rows are several capRun long.
func tiedGraph(seed uint64, nodes, edges int) *Graph {
	rng := tensor.NewRNG(seed | 1)
	g := New(3)
	for i := 0; i < edges; i++ {
		u, v := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
		if u != v {
			_ = g.AddEdgeWeight(EdgeType(rng.Intn(3)), u, v, float64(1+rng.Intn(2)), never)
		}
	}
	for v := 1; v <= 5*capRun; v++ {
		_ = g.AddEdgeWeight(EdgeType(v%2), 0, NodeID(nodes+v), float64(1+rng.Intn(3)), never)
	}
	return g
}

// TestSnapshotCapOrder: every published row's cap order is its
// neighbours sorted by heavier, for short rows, rows of several runs and
// rows with many ties.
func TestSnapshotCapOrder(t *testing.T) {
	for _, g := range []*Graph{randomGraph(3, 40, 400), tiedGraph(4, 40, 400)} {
		s := g.Snapshot()
		for _, u := range s.Nodes() {
			r := s.row(u)
			for typ := 0; typ < s.NumEdgeTypes(); typ++ {
				want := s.NeighborsByType(u, EdgeType(typ))
				slices.SortFunc(want, heavier)
				var got []Neighbor
				for _, k := range s.capOrd[typ][s.offsets[typ][r]:s.offsets[typ][r+1]] {
					got = append(got, Neighbor{Node: s.ids[s.nbr[typ][k]], Weight: s.wts[typ][k]})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("node %d type %d: cap order %v, want %v", u, typ, got, want)
				}
			}
		}
	}
}

// checkSample asserts that s.Sample and SampleView over s agree on
// target u under opts, at every cut depth and under a random cap, which
// must consume the generator identically.
func checkSample(t *testing.T, name string, s *Snapshot, u NodeID, base SampleOptions) {
	t.Helper()
	for layers := 0; layers <= 3; layers++ {
		opts := base
		opts.Layers = layers
		want := SampleView(s, u, opts)
		if got := s.Sample(u, opts); !sameSample(got, want) {
			t.Fatalf("%s node %d %+v: row-space walk differs from SampleView", name, u, opts)
		}
		opts.MaxNeighbors = 2
		opts.RNG = tensor.NewRNG(uint64(u) + 1)
		want = SampleView(s, u, opts)
		opts.RNG = tensor.NewRNG(uint64(u) + 1)
		if got := s.Sample(u, opts); !sameSample(got, want) {
			t.Fatalf("%s node %d %+v: random draw differs from SampleView", name, u, opts)
		}
	}
}

// TestSnapshotSampleMatchesReference: the snapshot's row-space walk must
// return what the accessor-based SampleView returns over the same
// snapshot, for every option including the cone cut and a random cap. The hand-built cases pin the traps of reading a cap
// as a prefix of the published cap order.
func TestSnapshotSampleMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"seed 7", randomGraph(7, 24, 160)},
		{"seed 8", randomGraph(8, 24, 160)},
		{"seed 9", randomGraph(9, 24, 160)},
		{"tied weights", tiedGraph(10, 24, 200)},
	}
	even := func(n NodeID) bool { return n%2 == 0 }
	for _, c := range graphs {
		s := c.g.Snapshot()
		for _, u := range append(c.g.Nodes(), 999) { // 999 is unregistered
			notTarget := func(n NodeID) bool { return n != u }
			for _, base := range []SampleOptions{
				{Hops: 2},
				{Hops: 2, MaxNeighbors: 3},
				{Hops: 2, MaxNeighbors: 2, Filter: even},
				{Hops: 2, MaxNeighbors: 2, Filter: notTarget},
				{Hops: 3, RawWeights: true},
				{Hops: 2, Mask: MaskEdgeType(1)},
				{Hops: 1, MaxNeighbors: 2},
			} {
				checkSample(t, c.name, s, u, base)
			}
		}
	}

	// Each case is a star of type-0 edges (center, neighbour, weight)
	// sampled from node 0 with a cap of two; want is the node order only
	// the right reading produces.
	for _, c := range []struct {
		name   string
		edges  [][3]float64
		filter func(NodeID) bool
		want   []NodeID
	}{{
		// Node 1's row is over the cap and its heaviest entry is the
		// target. Filter rejects the target, so node 1 expands 2 and 3; a
		// walk that took "already sampled" for "accepted" would expand
		// the target and 2.
		name:   "rejected target in an over-cap row",
		edges:  [][3]float64{{0, 1, 1}, {1, 2, 5}, {1, 3, 4}, {1, 4, 3}, {1, 0, 8}},
		filter: func(n NodeID) bool { return n != 0 },
		want:   []NodeID{0, 1, 2, 3},
	}, {
		// Four entries, two accepted: capNeighbors leaves two of two in
		// ID order, not in cap order (which would be 2, 1).
		name:   "accepted count drops to the cap",
		edges:  [][3]float64{{0, 1, 1}, {0, 2, 5}, {0, 3, 9}, {0, 4, 7}},
		filter: func(n NodeID) bool { return n < 3 },
		want:   []NodeID{0, 1, 2},
	}, {
		// Equal weights tie by ascending ID: 2 (weight 3), then 3 of the
		// three at weight 2.
		name:  "equal weights",
		edges: [][3]float64{{0, 5, 2}, {0, 1, 1}, {0, 4, 2}, {0, 3, 2}, {0, 2, 3}},
		want:  []NodeID{0, 2, 3},
	}} {
		g := New(3)
		for _, e := range c.edges {
			_ = g.AddEdgeWeight(0, NodeID(e[0]), NodeID(e[1]), e[2], never)
		}
		s := g.Snapshot()
		opts := SampleOptions{Hops: 2, MaxNeighbors: 2, Filter: c.filter}
		if got := s.Sample(0, opts).Nodes; !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: sampled %v, want %v", c.name, got, c.want)
		}
		for _, u := range g.Nodes() {
			checkSample(t, c.name, s, u, opts)
		}
	}
}

// allZero reports whether the per-row tables hold no sample's state.
func (sc *sampleScratch) allZero() bool {
	return len(sc.touched) == 0 &&
		!slices.ContainsFunc(sc.local, func(v int32) bool { return v != 0 }) &&
		!slices.ContainsFunc(sc.verdict, func(v uint8) bool { return v != unasked })
}

// TestSnapshotSampleConcurrentPool: goroutines sample a snapshot taken
// before the graph grew and one taken after, concurrently, so pooled
// scratch sized for one serves the other. Every result must equal
// SampleView, and every scratch must go back to the pool all-zero.
func TestSnapshotSampleConcurrentPool(t *testing.T) {
	g := randomGraph(21, 30, 200)
	small := g.Snapshot()
	rng := tensor.NewRNG(5)
	for i := 0; i < 1500; i++ {
		u, v := NodeID(rng.Intn(300)), NodeID(rng.Intn(300))
		if u != v {
			_ = g.AddEdgeWeight(EdgeType(rng.Intn(3)), u, v, rng.Float64()+0.01, never)
		}
	}
	big := g.Snapshot()
	if small.NumNodes()*5 > big.NumNodes() {
		t.Fatalf("graph grew from %d to only %d nodes", small.NumNodes(), big.NumNodes())
	}
	odd := func(n NodeID) bool { return n%2 == 1 }
	type job struct {
		s    *Snapshot
		u    NodeID
		opts SampleOptions
		want *Subgraph
	}
	var jobs []job
	for _, s := range []*Snapshot{small, big} {
		for _, u := range s.Nodes()[:24] {
			for _, opts := range []SampleOptions{
				{Hops: 2, MaxNeighbors: 3, Filter: odd},
				{Hops: 2, MaxNeighbors: 4, Layers: 2},
			} {
				jobs = append(jobs, job{s, u, opts, SampleView(s, u, opts)})
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range jobs {
					j := jobs[(i*7+w*13+round)%len(jobs)]
					if got := j.s.Sample(j.u, j.opts); !sameSample(got, j.want) {
						t.Errorf("%d-node snapshot, node %d %+v: differs from SampleView", j.s.NumNodes(), j.u, j.opts)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var held []*sampleScratch
	for i := 0; i < 16; i++ {
		sc := sampleScratchPool.Get().(*sampleScratch)
		if !sc.allZero() {
			t.Fatalf("a scratch went back to the pool holding %d touched rows", len(sc.touched))
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		sampleScratchPool.Put(sc)
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
	if got := full.Hops[slices.Index(full.Nodes, 4)]; got != 2 {
		t.Fatalf("node 4 labeled hop %d, want 2 (the cap must leave it to re-enter)", got)
	}
	if slices.Contains(full.Nodes, 6) {
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

// TestSnapshotHopScansMatchLive checks the Fig. 4 scan helpers against
// the same scans over the live state (liveOf).
func TestSnapshotHopScansMatchLive(t *testing.T) {
	g := randomGraph(11, 15, 60)
	s := g.Snapshot()
	l := liveOf(g)
	isFraud := func(n NodeID) bool { return n%3 == 0 }
	for _, u := range l.nodes {
		for only := -1; only < 3; only++ {
			want := make([]float64, 3)
			for h, set := range l.hopSets(u, 3, only) {
				if len(set) > 0 {
					want[h] = float64(len(slices.DeleteFunc(slices.Clone(set), func(n NodeID) bool { return !isFraud(n) }))) / float64(len(set))
				}
			}
			if !reflect.DeepEqual(want, s.FraudRatioByHop(u, 3, only, isFraud)) {
				t.Fatalf("fraud ratio differs at %d type %d", u, only)
			}
		}
		// Hop sets are maps, so summation order differs run to run;
		// compare the means with a tolerance.
		gm := make([]float64, 3)
		for h, set := range l.hopSets(u, 3, -1) {
			for _, v := range set {
				gm[h] += l.weightedDegree(v)
			}
			if len(set) > 0 {
				gm[h] /= float64(len(set))
			}
		}
		sm := s.MeanDegreeByHop(u, 3, true)
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
	s := g.Snapshot()
	// Nodes 1 and 2 are now isolated: no adjacency left in any shard...
	for _, u := range []NodeID{1, 2} {
		if ns := s.Neighbors(u); len(ns) != 0 {
			t.Fatalf("node %d still has neighbors %v after prune", u, ns)
		}
		if sh := &g.shards[shardOf(u)]; sh.adj[u] != nil {
			t.Fatalf("node %d adjacency not dropped from shard index", u)
		}
	}
	// ...but every node remains registered.
	for _, u := range []NodeID{1, 2, 3, 4, 9} {
		if !s.HasNode(u) {
			t.Fatalf("node %d lost registration after prune", u)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes %d want 5", g.NumNodes())
	}
	// The surviving edge and its degree cache are intact.
	if s.TypedWeightedDegree(3, 1) != 1 || s.EdgeWeight(1, 3, 4) != 1 {
		t.Fatal("surviving edge damaged by prune")
	}
}
