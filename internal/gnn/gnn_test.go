package gnn

import (
	"math"
	"testing"
	"time"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// ringWorld builds a toy graph: nodes 0-3 form a type-0 clique (the
// fraud ring), nodes 4-9 are a sparse type-1 chain of normals, and node
// 3 bridges the groups. Features carry a weak signal; labels mark 0-3.
func ringWorld(t *testing.T) (*Batch, []int, []float64) {
	t.Helper()
	g := graph.New(2)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := g.AddEdgeWeight(0, graph.NodeID(i), graph.NodeID(j), 1, never); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 4; i < 9; i++ {
		_ = g.AddEdgeWeight(1, graph.NodeID(i), graph.NodeID(i+1), 0.2, never)
	}
	_ = g.AddEdgeWeight(1, 3, 4, 0.2, never)

	sg := fullSubgraph(g, 10)
	rng := tensor.NewRNG(7)
	x := tensor.New(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if i < 4 {
			x.Set(i, 0, x.At(i, 0)+0.5) // weak feature signal
		}
	}
	labels := make([]float64, 10)
	for i := 0; i < 4; i++ {
		labels[i] = 1
	}
	train := []int{0, 1, 2, 4, 5, 6, 7}
	return NewBatch(sg, x), train, labels
}

// fullSubgraph materializes every node and raw-weight edge of g.
func fullSubgraph(g *graph.Graph, n int) *graph.Subgraph {
	sg := &graph.Subgraph{TypedEdges: make([][]graph.LocalEdge, g.NumEdgeTypes())}
	for i := 0; i < n; i++ {
		sg.Nodes = append(sg.Nodes, graph.NodeID(i))
		sg.Hops = append(sg.Hops, 0)
	}
	for t := 0; t < g.NumEdgeTypes(); t++ {
		for i := 0; i < n; i++ {
			for _, nb := range g.NeighborsByType(graph.NodeID(i), graph.EdgeType(t)) {
				sg.TypedEdges[t] = append(sg.TypedEdges[t],
					graph.LocalEdge{Src: i, Dst: int(nb.Node), Weight: nb.Weight})
			}
		}
	}
	return sg
}

func TestBatchValidatesShape(t *testing.T) {
	g := graph.New(1)
	g.AddNode(0)
	sg := fullSubgraph(g, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched feature rows")
		}
	}()
	NewBatch(sg, tensor.New(2, 3))
}

func TestMergedEdgesSumAcrossTypes(t *testing.T) {
	g := graph.New(2)
	_ = g.AddEdgeWeight(0, 0, 1, 1, never)
	_ = g.AddEdgeWeight(1, 0, 1, 2, never)
	b := NewBatch(fullSubgraph(g, 2), tensor.New(2, 1))
	merged := b.MergedEdges()
	if len(merged) != 2 { // both directions
		t.Fatalf("merged edges %d", len(merged))
	}
	for _, e := range merged {
		if e.Weight != 3 {
			t.Fatalf("merged weight %v want 3", e.Weight)
		}
	}
}

func TestMergedRWCSRRowsSumToOne(t *testing.T) {
	b, _, _ := ringWorld(t)
	csr := b.MergedRWCSR()
	for i := 0; i < csr.NRows; i++ {
		var sum float64
		for p := csr.RowPtr[i]; p < csr.RowPtr[i+1]; p++ {
			sum += csr.Weights[p]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestMergedRWCSRIsUnweighted(t *testing.T) {
	g := graph.New(1)
	_ = g.AddEdgeWeight(0, 0, 1, 100, never) // heavy edge
	_ = g.AddEdgeWeight(0, 0, 2, 1, never)   // light edge
	b := NewBatch(fullSubgraph(g, 3), tensor.New(3, 1))
	csr := b.MergedRWCSR()
	// Row 0: neighbors {1, 2} + self, all weight 1/3 despite raw weights.
	for p := csr.RowPtr[0]; p < csr.RowPtr[1]; p++ {
		if math.Abs(csr.Weights[p]-1.0/3.0) > 1e-12 {
			t.Fatalf("GCN aggregation must ignore edge weights: %v", csr.Weights[p])
		}
	}
}

func TestTypedMeanCSRKeepsWeights(t *testing.T) {
	g := graph.New(1)
	_ = g.AddEdgeWeight(0, 0, 1, 3, never)
	_ = g.AddEdgeWeight(0, 0, 2, 1, never)
	b := NewBatch(fullSubgraph(g, 3), tensor.New(3, 1))
	csr := b.TypedMeanCSR(0)
	weights := map[int]float64{}
	for p := csr.RowPtr[0]; p < csr.RowPtr[1]; p++ {
		weights[csr.ColIdx[p]] = csr.Weights[p]
	}
	// Weighted average: 3/(3+1) and 1/(3+1).
	if math.Abs(weights[1]-0.75) > 1e-12 || math.Abs(weights[2]-0.25) > 1e-12 {
		t.Fatalf("SAO aggregation must keep normalized edge weights: %v", weights)
	}
}

func TestIsolatedNodeAggregationIsZeroSafe(t *testing.T) {
	g := graph.New(1)
	g.AddNode(0)
	g.AddNode(1)
	_ = g.AddEdgeWeight(0, 0, 1, 1, never)
	g.AddNode(2) // isolated
	b := NewBatch(fullSubgraph(g, 3), tensor.FromRows([][]float64{{1}, {2}, {3}}))
	out := b.MergedMeanCSR().MatMul(b.X)
	if out.At(2, 0) != 0 {
		t.Fatalf("isolated node aggregate should be 0: %v", out.At(2, 0))
	}
}

func runModelTest(t *testing.T, m Model) {
	t.Helper()
	b, train, labels := ringWorld(t)
	stats := Train(m, b, train, labels, TrainConfig{Epochs: 150, LR: 0.02, BalanceClasses: true})
	if math.IsNaN(stats.FinalLoss) {
		t.Fatal("training diverged to NaN")
	}
	scores := Scores(m, b)
	if len(scores) != 10 {
		t.Fatalf("scores len %d", len(scores))
	}
	// Held-out nodes: 3 (fraud, in the clique) vs 8, 9 (normal chain).
	if scores[3] <= scores[8] || scores[3] <= scores[9] {
		t.Fatalf("%s failed to generalize: fraud %v vs normal %v, %v",
			m.Name(), scores[3], scores[8], scores[9])
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score out of [0,1]: %v", s)
		}
	}
}

func TestGCNLearnsRing(t *testing.T) { runModelTest(t, NewGCN(Config{InDim: 4, Hidden: []int{8, 8}})) }
func TestGraphSAGELearnsRing(t *testing.T) {
	runModelTest(t, NewGraphSAGE(Config{InDim: 4, Hidden: []int{8, 8}}))
}
func TestGATLearnsRing(t *testing.T) { runModelTest(t, NewGAT(Config{InDim: 4, Hidden: []int{8, 8}})) }

func TestModelNames(t *testing.T) {
	if NewGCN(Config{InDim: 1}).Name() != "GCN" ||
		NewGraphSAGE(Config{InDim: 1}).Name() != "G-SAGE" ||
		NewGAT(Config{InDim: 1}).Name() != "GAT" {
		t.Fatal("model names wrong")
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	b, train, labels := ringWorld(t)
	run := func() []float64 {
		m := NewGraphSAGE(Config{InDim: 4, Hidden: []int{8, 8}, Seed: 5})
		Train(m, b, train, labels, TrainConfig{Epochs: 30, Seed: 9})
		return Scores(m, b)
	}
	s1, s2 := run(), run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("training not deterministic at node %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestTrainProgressCallback(t *testing.T) {
	b, train, labels := ringWorld(t)
	m := NewGCN(Config{InDim: 4, Hidden: []int{4}})
	var epochs int
	var first, last float64
	Train(m, b, train, labels, TrainConfig{Epochs: 40, Progress: func(e int, loss float64) {
		if epochs == 0 {
			first = loss
		}
		last = loss
		epochs++
	}})
	if epochs != 40 {
		t.Fatalf("progress called %d times", epochs)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestScoreTargetsNodeZero(t *testing.T) {
	b, train, labels := ringWorld(t)
	m := NewGraphSAGE(Config{InDim: 4, Hidden: []int{8}})
	Train(m, b, train, labels, TrainConfig{Epochs: 50, BalanceClasses: true})
	if got, want := Score(m, b), Scores(m, b)[0]; got != want {
		t.Fatalf("Score %v != Scores[0] %v", got, want)
	}
}

func TestTrainStatsElapsed(t *testing.T) {
	b, train, labels := ringWorld(t)
	m := NewGCN(Config{InDim: 4, Hidden: []int{4}})
	stats := Train(m, b, train, labels, TrainConfig{Epochs: 5})
	if stats.Elapsed <= 0 || stats.Epochs != 5 {
		t.Fatalf("stats %+v", stats)
	}
}
