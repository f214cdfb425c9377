package graph

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

func TestAddEdgeAccumulatesWeight(t *testing.T) {
	g := New(2)
	if err := g.AddEdgeWeight(0, 1, 2, 0.25, never); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeWeight(0, 2, 1, 0.5, never); err != nil { // reversed order, same edge
		t.Fatal(err)
	}
	s := g.Snapshot()
	if w := s.EdgeWeight(0, 1, 2); w != 0.75 {
		t.Fatalf("weight %v want 0.75", w)
	}
	if w := s.EdgeWeight(0, 2, 1); w != 0.75 {
		t.Fatalf("undirected symmetry broken: %v", w)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges %d want 1", g.NumEdges())
	}
}

func TestEdgesOfDifferentTypesAreDistinct(t *testing.T) {
	g := New(3)
	_ = g.AddEdgeWeight(0, 1, 2, 1, never)
	_ = g.AddEdgeWeight(2, 1, 2, 1, never)
	if g.NumEdges() != 2 {
		t.Fatalf("typed edges should be distinct: %d", g.NumEdges())
	}
	if g.Snapshot().EdgeWeight(1, 1, 2) != 0 {
		t.Fatal("type 1 should have no edge")
	}
}

func TestAddEdgeRejectsInvalid(t *testing.T) {
	g := New(1)
	if err := g.AddEdgeWeight(0, 1, 1, 1, never); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdgeWeight(0, 1, 2, 0, never); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := g.AddEdgeWeight(0, 1, 2, -1, never); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddEdgeWeight(0, 1, 2, math.NaN(), never); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if err := g.AddEdgeWeight(5, 1, 2, 1, never); err == nil {
		t.Fatal("out-of-range type accepted")
	}
	if g.NumEdges() != 0 {
		t.Fatal("invalid edges should not be stored")
	}
}

func TestNodesAndDegrees(t *testing.T) {
	g := New(2)
	g.AddNode(9)
	_ = g.AddEdgeWeight(0, 1, 2, 1, never)
	_ = g.AddEdgeWeight(1, 1, 3, 2, never)
	if g.NumNodes() != 4 {
		t.Fatalf("nodes %d", g.NumNodes())
	}
	s := g.Snapshot()
	if !s.HasNode(9) || s.HasNode(100) {
		t.Fatal("HasNode wrong")
	}
	if d := s.Degree(1); d != 2 {
		t.Fatalf("degree %d", d)
	}
	if wd := s.WeightedDegree(1); wd != 3 {
		t.Fatalf("weighted degree %v", wd)
	}
	if td := s.TypedWeightedDegree(1, 1); td != 2 {
		t.Fatalf("typed weighted degree %v", td)
	}
	if d := s.Degree(9); d != 0 {
		t.Fatalf("isolated node degree %d", d)
	}
}

func TestNeighborsSortedAndTyped(t *testing.T) {
	g := New(2)
	_ = g.AddEdgeWeight(0, 5, 9, 1, never)
	_ = g.AddEdgeWeight(0, 5, 3, 1, never)
	_ = g.AddEdgeWeight(1, 5, 7, 1, never)
	s := g.Snapshot()
	ns := s.Neighbors(5)
	if len(ns) != 3 || ns[0] != 3 || ns[1] != 7 || ns[2] != 9 {
		t.Fatalf("neighbors %v", ns)
	}
	typed := s.NeighborsByType(5, 0)
	if len(typed) != 2 || typed[0].Node != 3 {
		t.Fatalf("typed neighbors %v", typed)
	}
}

func TestNormalizedWeightFormula(t *testing.T) {
	g := New(1)
	_ = g.AddEdgeWeight(0, 1, 2, 2, never)
	_ = g.AddEdgeWeight(0, 1, 3, 6, never)
	_ = g.AddEdgeWeight(0, 2, 3, 2, never)
	// deg'(1)=8, deg'(2)=4: w'(1,2) = 2/sqrt(8*4)
	want := 2 / math.Sqrt(32)
	s := g.Snapshot()
	if got := s.NormalizedWeight(0, 1, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("normalized weight %v want %v", got, want)
	}
	if s.NormalizedWeight(0, 1, 9) != 0 {
		t.Fatal("missing edge should normalize to 0")
	}
}

func TestPruneExpiredEdges(t *testing.T) {
	g := New(1)
	soon := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	_ = g.AddEdgeWeight(0, 1, 2, 1, soon)
	_ = g.AddEdgeWeight(0, 2, 3, 1, never)
	dropped := g.Prune(soon.Add(time.Hour))
	if dropped != 1 {
		t.Fatalf("dropped %d want 1", dropped)
	}
	if s := g.Snapshot(); g.NumEdges() != 1 || s.EdgeWeight(0, 1, 2) != 0 || s.EdgeWeight(0, 2, 3) != 1 {
		t.Fatal("wrong edge pruned")
	}
}

func TestPruneExtendsTTLOnUpdate(t *testing.T) {
	g := New(1)
	early := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	late := early.Add(100 * time.Hour)
	_ = g.AddEdgeWeight(0, 1, 2, 1, early)
	_ = g.AddEdgeWeight(0, 1, 2, 1, late) // refresh
	if n := g.Prune(early.Add(time.Hour)); n != 0 {
		t.Fatalf("refreshed edge pruned (%d)", n)
	}
	if n := g.Prune(late.Add(time.Hour)); n != 1 {
		t.Fatalf("expired edge survived (%d)", n)
	}
}

func TestEdgesListSortedAndOnce(t *testing.T) {
	g := New(2)
	_ = g.AddEdgeWeight(1, 4, 2, 1, never)
	_ = g.AddEdgeWeight(0, 3, 1, 1, never)
	_ = g.AddEdgeWeight(0, 1, 2, 1, never)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("edges %v", es)
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %v", i, e)
		}
		if i > 0 {
			prev := es[i-1]
			if e.Type < prev.Type || (e.Type == prev.Type && e.U < prev.U) {
				t.Fatal("edges not sorted")
			}
		}
	}
}

func TestEdgeCountByTypeAndStats(t *testing.T) {
	g := New(3)
	_ = g.AddEdgeWeight(0, 1, 2, 1, never)
	_ = g.AddEdgeWeight(0, 1, 3, 1, never)
	_ = g.AddEdgeWeight(2, 1, 2, 1, never)
	counts := g.EdgeCountByType()
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("counts %v", counts)
	}
	st := g.Stats()
	if st.Nodes != 3 || st.Edges != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestNumEdgesConsistencyProperty: after random additions and prunes,
// NumEdges equals the length of Edges().
func TestNumEdgesConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		g := New(3)
		base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 60; i++ {
			u := NodeID(rng.Intn(10))
			v := NodeID(rng.Intn(10))
			if u == v {
				continue
			}
			exp := base.Add(time.Duration(rng.Intn(100)) * time.Hour)
			_ = g.AddEdgeWeight(EdgeType(rng.Intn(3)), u, v, rng.Float64()+0.01, exp)
		}
		g.Prune(base.Add(time.Duration(rng.Intn(120)) * time.Hour))
		return g.NumEdges() == len(g.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// buildLine constructs 0 - 1 - 2 - 3 over type 0 and returns its
// snapshot.
func buildLine(t *testing.T) *Snapshot {
	t.Helper()
	g := New(2)
	for i := 0; i < 3; i++ {
		if err := g.AddEdgeWeight(0, NodeID(i), NodeID(i+1), 1, never); err != nil {
			t.Fatal(err)
		}
	}
	return g.Snapshot()
}

func TestSampleHops(t *testing.T) {
	s := buildLine(t)
	sg := s.Sample(0, SampleOptions{Hops: 1})
	if sg.NumNodes() != 2 {
		t.Fatalf("1-hop from end of line: %d nodes", sg.NumNodes())
	}
	sg = s.Sample(0, SampleOptions{Hops: 2})
	if sg.NumNodes() != 3 {
		t.Fatalf("2-hop: %d nodes", sg.NumNodes())
	}
	if sg.Nodes[0] != 0 {
		t.Fatal("target must be node 0 of the subgraph")
	}
	if sg.Hops[0] != 0 || sg.Hops[len(sg.Hops)-1] != 2 {
		t.Fatalf("hop annotation wrong: %v", sg.Hops)
	}
}

func TestSampleFilterKeepsTarget(t *testing.T) {
	s := buildLine(t)
	sg := s.Sample(1, SampleOptions{
		Hops:   2,
		Filter: func(n NodeID) bool { return n == 2 }, // rejects even the target's other neighbors
	})
	if sg.Nodes[0] != 1 {
		t.Fatal("filtered target dropped")
	}
	for _, n := range sg.Nodes[1:] {
		if n != 2 {
			t.Fatalf("filter leaked node %d", n)
		}
	}
}

func TestSampleMaxNeighborsCap(t *testing.T) {
	g := New(1)
	for i := 1; i <= 20; i++ {
		_ = g.AddEdgeWeight(0, 0, NodeID(i), float64(i), never)
	}
	s := g.Snapshot()
	sg := s.Sample(0, SampleOptions{Hops: 1, MaxNeighbors: 5})
	if sg.NumNodes() != 6 {
		t.Fatalf("cap not applied: %d nodes", sg.NumNodes())
	}
	// Deterministic cap keeps the heaviest neighbors.
	for _, n := range sg.Nodes[1:] {
		if n < 16 {
			t.Fatalf("expected top-weight neighbors, got %d", n)
		}
	}
	// Randomized cap also returns the right count.
	sg = s.Sample(0, SampleOptions{Hops: 1, MaxNeighbors: 5, RNG: tensor.NewRNG(1)})
	if sg.NumNodes() != 6 {
		t.Fatalf("random cap wrong: %d nodes", sg.NumNodes())
	}
}

func TestSampleMaskExcludesType(t *testing.T) {
	g := New(2)
	_ = g.AddEdgeWeight(0, 0, 1, 1, never)
	_ = g.AddEdgeWeight(1, 0, 2, 1, never)
	s := g.Snapshot()
	sg := s.Sample(0, SampleOptions{Hops: 1, Mask: MaskEdgeType(0)})
	if slices.Contains(sg.Nodes, 1) {
		t.Fatal("masked-type neighbor included")
	}
	if !slices.Contains(sg.Nodes, 2) {
		t.Fatal("unmasked neighbor missing")
	}
	if len(sg.TypedEdges[0]) != 0 {
		t.Fatal("masked type edges materialized")
	}
}

func TestSampleEdgesNormalized(t *testing.T) {
	g := New(1)
	_ = g.AddEdgeWeight(0, 0, 1, 2, never)
	s := g.Snapshot()
	sg := s.Sample(0, SampleOptions{Hops: 1})
	// Both nodes have typed weighted degree 2 → w' = 2/sqrt(4) = 1.
	for _, e := range sg.TypedEdges[0] {
		if math.Abs(e.Weight-1) > 1e-12 {
			t.Fatalf("normalized weight %v want 1", e.Weight)
		}
	}
	raw := s.Sample(0, SampleOptions{Hops: 1, RawWeights: true})
	for _, e := range raw.TypedEdges[0] {
		if e.Weight != 2 {
			t.Fatalf("raw weight %v want 2", e.Weight)
		}
	}
}

func TestSubgraphEdgesBothDirections(t *testing.T) {
	s := buildLine(t)
	sg := s.Sample(1, SampleOptions{Hops: 1})
	// Edges 1-0 and 1-2 should appear in both directions among included nodes.
	if sg.NumEdges() != 4 {
		t.Fatalf("directed edge count %d want 4", sg.NumEdges())
	}
}

func TestFraudRatioByHop(t *testing.T) {
	s := buildLine(t) // 0-1-2-3
	isFraud := func(n NodeID) bool { return n == 1 || n == 2 }
	ratios := s.FraudRatioByHop(0, 3, -1, isFraud)
	if ratios[0] != 1 { // hop1 = {1}
		t.Fatalf("hop1 ratio %v", ratios[0])
	}
	if ratios[1] != 1 { // hop2 = {2}
		t.Fatalf("hop2 ratio %v", ratios[1])
	}
	if ratios[2] != 0 { // hop3 = {3}
		t.Fatalf("hop3 ratio %v", ratios[2])
	}
}

func TestFraudRatioByHopOnlyType(t *testing.T) {
	g := New(2)
	_ = g.AddEdgeWeight(0, 0, 1, 1, never) // type 0 to fraud
	_ = g.AddEdgeWeight(1, 0, 2, 1, never) // type 1 to normal
	isFraud := func(n NodeID) bool { return n == 1 }
	s := g.Snapshot()
	if r := s.FraudRatioByHop(0, 1, 0, isFraud); r[0] != 1 {
		t.Fatalf("type-0 ratio %v", r)
	}
	if r := s.FraudRatioByHop(0, 1, 1, isFraud); r[0] != 0 {
		t.Fatalf("type-1 ratio %v", r)
	}
}

func TestMeanDegreeByHop(t *testing.T) {
	// Star: 0 connected to 1,2,3; node 1 also connected to 4.
	g := New(1)
	for i := 1; i <= 3; i++ {
		_ = g.AddEdgeWeight(0, 0, NodeID(i), 2, never)
	}
	_ = g.AddEdgeWeight(0, 1, 4, 2, never)
	s := g.Snapshot()
	got := s.MeanDegreeByHop(0, 2, false)
	// hop1 = {1,2,3} with degrees 2,1,1 → mean 4/3.
	if math.Abs(got[0]-4.0/3.0) > 1e-12 {
		t.Fatalf("hop1 mean degree %v", got[0])
	}
	weighted := s.MeanDegreeByHop(0, 2, true)
	// weighted degrees 4,2,2 → mean 8/3.
	if math.Abs(weighted[0]-8.0/3.0) > 1e-12 {
		t.Fatalf("hop1 mean weighted degree %v", weighted[0])
	}
}

func TestWriteDOT(t *testing.T) {
	s := buildLine(t)
	sg := s.Sample(0, SampleOptions{Hops: 2})
	var b strings.Builder
	err := sg.WriteDOT(&b, "test", func(n NodeID) int { return int(n) % 3 })
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"graph \"test\"", "n0", "salmon", "khaki", "--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestCapNeighborsKeepsHeaviest pins the bounded selection to a full
// sort in cap order, ties included.
func TestCapNeighborsKeepsHeaviest(t *testing.T) {
	rng := tensor.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		n, max := 1+rng.Intn(60), 1+rng.Intn(12)
		ns := make([]Neighbor, n)
		for i := range ns {
			ns[i] = Neighbor{Node: NodeID(i), Weight: float64(rng.Intn(5))}
		}
		rng.Shuffle(n, func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		want := slices.Clone(ns) // a row within the cap is kept as it is
		if n > max {
			slices.SortFunc(want, heavier)
			want = want[:max]
		}
		if got := capNeighbors(ns, max, nil); !slices.Equal(got, want) {
			t.Fatalf("n=%d max=%d: kept %v, want %v", n, max, got, want)
		}
	}
}
