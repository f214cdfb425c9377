package gnn

import (
	"math"
	"testing"
	"time"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// inductiveWorld builds a BN with two fraud cliques and a normal chain,
// plus per-node features.
func inductiveWorld(t *testing.T) (*graph.Snapshot, FeatureFunc, []graph.NodeID, []float64) {
	t.Helper()
	exp := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	g := graph.New(2)
	addClique := func(members []graph.NodeID, typ graph.EdgeType) {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				_ = g.AddEdgeWeight(typ, members[i], members[j], 1, exp)
			}
		}
	}
	addClique([]graph.NodeID{0, 1, 2, 3}, 0)
	addClique([]graph.NodeID{10, 11, 12}, 0)
	for i := graph.NodeID(20); i < 29; i++ {
		_ = g.AddEdgeWeight(1, i, i+1, 0.3, exp)
	}
	rng := tensor.NewRNG(3)
	featCache := map[graph.NodeID][]float64{}
	feats := func(n graph.NodeID) []float64 {
		if v, ok := featCache[n]; ok {
			return v
		}
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if n < 15 {
			v[0] += 0.5
		}
		featCache[n] = v
		return v
	}
	var nodes []graph.NodeID
	var labels []float64
	for _, n := range g.Nodes() {
		nodes = append(nodes, n)
		if n < 15 {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	return g.Snapshot(), feats, nodes, labels
}

func TestSampleBatchMergesOverlaps(t *testing.T) {
	g, feats, _, _ := inductiveWorld(t)
	// Targets 0 and 1 share their whole clique: merged batch must not
	// duplicate nodes.
	batch, rows := SampleBatch(g, feats, []graph.NodeID{0, 1}, 2, 10, nil)
	if batch.NumNodes != 4 {
		t.Fatalf("merged batch nodes %d want 4 (shared clique)", batch.NumNodes)
	}
	if rows[0] == rows[1] {
		t.Fatal("distinct targets mapped to the same row")
	}
	// No duplicate typed edges.
	seen := map[[3]int]bool{}
	for typ, es := range batch.TypedEdges {
		for _, e := range es {
			key := [3]int{typ, e.Src, e.Dst}
			if seen[key] {
				t.Fatalf("duplicate edge %v", key)
			}
			seen[key] = true
		}
	}
}

func TestSampleBatchTargetRows(t *testing.T) {
	g, feats, _, _ := inductiveWorld(t)
	targets := []graph.NodeID{0, 10, 20}
	batch, rows := SampleBatch(g, feats, targets, 2, 10, nil)
	for k, r := range rows {
		if batch.NumNodes <= r {
			t.Fatalf("row %d out of range", r)
		}
		// The row's features must match the target's features.
		want := feats(targets[k])
		got := batch.X.Row(r)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("target %d row features mismatch", k)
			}
		}
	}
}

func TestTrainInductiveLearns(t *testing.T) {
	g, feats, nodes, labels := inductiveWorld(t)
	m := NewGraphSAGE(Config{InDim: 3, Hidden: []int{8, 8}, MLPHidden: 4, Seed: 1})
	stats := TrainInductive(m, g, feats, nodes, labels, InductiveConfig{
		TrainConfig: TrainConfig{Epochs: 60, LR: 0.02, BalanceClasses: true, Seed: 2},
		BatchSize:   8,
	})
	if math.IsNaN(stats.FinalLoss) {
		t.Fatal("inductive training diverged")
	}
	// Inference matches the online path: per-target sampled subgraph.
	score := func(n graph.NodeID) float64 {
		b, rows := SampleBatch(g, feats, []graph.NodeID{n}, 2, 10, nil)
		return Scores(m, b)[rows[0]]
	}
	if score(2) <= score(25) {
		t.Fatalf("inductive model failed: fraud %v <= normal %v", score(2), score(25))
	}
}

func TestTrainInductiveDeterministic(t *testing.T) {
	g, feats, nodes, labels := inductiveWorld(t)
	run := func() float64 {
		m := NewGraphSAGE(Config{InDim: 3, Hidden: []int{4}, MLPHidden: 2, Seed: 5})
		stats := TrainInductive(m, g, feats, nodes, labels, InductiveConfig{
			TrainConfig: TrainConfig{Epochs: 5, Seed: 7},
			BatchSize:   4,
		})
		return stats.FinalLoss
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic inductive training: %v vs %v", a, b)
	}
}
