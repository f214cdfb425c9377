package hag

import (
	"bytes"
	"math"
	"testing"
	"time"

	"turbo/internal/autodiff"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/nn"
	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// cliqueBatch builds a single homogeneous clique of n nodes with random
// but distinct features — the over-smoothing setting of Theorem 1.
func cliqueBatch(n int, seed uint64) *gnn.Batch {
	g := graph.New(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_ = g.AddEdgeWeight(0, graph.NodeID(i), graph.NodeID(j), 1, never)
		}
	}
	sg := &graph.Subgraph{TypedEdges: make([][]graph.LocalEdge, 1)}
	for i := 0; i < n; i++ {
		sg.Nodes = append(sg.Nodes, graph.NodeID(i))
		sg.Hops = append(sg.Hops, 0)
	}
	for i := 0; i < n; i++ {
		for _, nb := range g.NeighborsByType(graph.NodeID(i), 0) {
			sg.TypedEdges[0] = append(sg.TypedEdges[0],
				graph.LocalEdge{Src: i, Dst: int(nb.Node), Weight: nb.Weight})
		}
	}
	x := tensor.RandNormal(n, 6, 1, tensor.NewRNG(seed))
	return gnn.NewBatch(sg, x)
}

// embeddingSpread is the mean pairwise distance between node embeddings,
// normalized by the mean embedding norm — a collapse detector.
func embeddingSpread(h *tensor.Matrix) float64 {
	n := h.Rows
	var dist, norm float64
	for i := 0; i < n; i++ {
		ri := h.Row(i)
		var nrm float64
		for _, v := range ri {
			nrm += v * v
		}
		norm += math.Sqrt(nrm)
		for j := i + 1; j < n; j++ {
			rj := h.Row(j)
			var d float64
			for k := range ri {
				d += (ri[k] - rj[k]) * (ri[k] - rj[k])
			}
			dist += math.Sqrt(d)
		}
	}
	pairs := float64(n*(n-1)) / 2
	if norm == 0 {
		return 0
	}
	return (dist / pairs) / (norm / float64(n))
}

// TestSAOResistsCliqueOversmoothing is the Theorem 1 / SAO story: on a
// pure clique, the GCN aggregation collapses all nodes to (nearly) the
// same embedding after one round, while SAO's self-aware gate preserves
// the nodes' distinguishability.
func TestSAOResistsCliqueOversmoothing(t *testing.T) {
	b := cliqueBatch(12, 3)

	// GCN-style: one unweighted mean over Ñ(v) (no transform, to isolate
	// the aggregation operator itself).
	gcnAgg := b.MergedRWCSR().MatMul(b.X)
	gcnSpread := embeddingSpread(gcnAgg)
	inputSpread := embeddingSpread(b.X)
	if gcnSpread > 0.25*inputSpread {
		t.Fatalf("clique mean aggregation should collapse embeddings: spread %v vs input %v",
			gcnSpread, inputSpread)
	}

	// SAO keeps a gated self path: embeddings must stay distinguishable.
	m := New(Config{InDim: 6, NumEdgeTypes: 1, Hidden: []int{6}, AttHidden: 4, Seed: 1})
	tape := autodiff.NewTape()
	h := m.Embed(tape, b, tape.Const(b.X), nil)
	saoSpread := embeddingSpread(h.Value)
	if saoSpread < 4*gcnSpread {
		t.Fatalf("SAO should preserve far more spread than plain mean aggregation: %v vs %v",
			saoSpread, gcnSpread)
	}
}

// multiTypeBatch builds two edge types with opposite label alignment so
// CFO's type attention has something to learn.
func multiTypeBatch(t *testing.T) (*gnn.Batch, []int, []float64) {
	t.Helper()
	g := graph.New(2)
	// Type 0: clique among fraud nodes 0..3 (informative).
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			_ = g.AddEdgeWeight(0, graph.NodeID(i), graph.NodeID(j), 1, never)
		}
	}
	// Type 1: random noisy edges crossing the classes.
	rng := tensor.NewRNG(5)
	for k := 0; k < 12; k++ {
		u, v := graph.NodeID(rng.Intn(10)), graph.NodeID(rng.Intn(10))
		if u != v {
			_ = g.AddEdgeWeight(1, u, v, 0.3, never)
		}
	}
	for i := 0; i < 10; i++ {
		g.AddNode(graph.NodeID(i))
	}
	sg := &graph.Subgraph{TypedEdges: make([][]graph.LocalEdge, 2)}
	for i := 0; i < 10; i++ {
		sg.Nodes = append(sg.Nodes, graph.NodeID(i))
		sg.Hops = append(sg.Hops, 0)
	}
	for typ := 0; typ < 2; typ++ {
		for i := 0; i < 10; i++ {
			for _, nb := range g.NeighborsByType(graph.NodeID(i), graph.EdgeType(typ)) {
				sg.TypedEdges[typ] = append(sg.TypedEdges[typ],
					graph.LocalEdge{Src: i, Dst: int(nb.Node), Weight: nb.Weight})
			}
		}
	}
	x := tensor.RandNormal(10, 4, 1, tensor.NewRNG(11))
	labels := make([]float64, 10)
	for i := 0; i < 4; i++ {
		labels[i] = 1
		x.Set(i, 0, x.At(i, 0)+1.2) // moderate feature signal
	}
	return gnn.NewBatch(sg, x), []int{0, 1, 2, 4, 5, 6, 7}, labels
}

func trainHAG(t *testing.T, cfg Config) (*HAG, *gnn.Batch, []float64) {
	t.Helper()
	b, train, labels := multiTypeBatch(t)
	cfg.InDim = 4
	cfg.NumEdgeTypes = 2
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{8, 8}
	}
	cfg.AttHidden = 4
	m := New(cfg)
	gnn.Train(m, b, train, labels, gnn.TrainConfig{Epochs: 150, LR: 0.02, BalanceClasses: true})
	return m, b, gnn.Scores(m, b)
}

func TestHAGLearnsHeldOutFraud(t *testing.T) {
	// Seed 2: the 10-node toy is seed-sensitive (3 training positives);
	// generalization at scale is asserted by the eval harness.
	// Held-out nodes: 3 (fraud) vs 8, 9 (normal). The 10-node toy with
	// three training positives is highly seed-sensitive, so average over
	// several seeds and require the fraud node to beat the normal mean;
	// generalization at scale is asserted by the eval harness.
	var fraud, normal float64
	for seed := uint64(1); seed <= 4; seed++ {
		_, _, scores := trainHAG(t, Config{Seed: seed})
		fraud += scores[3]
		normal += (scores[8] + scores[9]) / 2
	}
	if fraud <= normal {
		t.Fatalf("HAG failed on held-out fraud: mean %v vs normal mean %v", fraud/4, normal/4)
	}
}

func TestHAGVariantsTrainAndAreNamed(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		name string
	}{
		{Config{Seed: 1}, "HAG"},
		{Config{Seed: 1, DisableSAOGate: true}, "HAG-SAO(-)"},
		{Config{Seed: 1, DisableCFO: true}, "HAG-CFO(-)"},
		{Config{Seed: 1, DisableSAOGate: true, DisableCFO: true}, "HAG-Both(-)"},
	} {
		m, _, scores := trainHAG(t, tc.cfg)
		if m.Name() != tc.name {
			t.Fatalf("variant name %q want %q", m.Name(), tc.name)
		}
		for _, s := range scores {
			if math.IsNaN(s) {
				t.Fatalf("%s produced NaN score", tc.name)
			}
		}
	}
}

func TestTypeAttentionRowsSumToOne(t *testing.T) {
	m, b, _ := trainHAG(t, Config{Seed: 2})
	att := m.TypeAttention(b)
	if att == nil || att.Rows != b.NumNodes || att.Cols != 2 {
		t.Fatalf("attention shape: %+v", att)
	}
	for i := 0; i < att.Rows; i++ {
		var sum float64
		for _, v := range att.Row(i) {
			if v < 0 {
				t.Fatal("negative attention")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("attention row %d sums to %v", i, sum)
		}
	}
}

func TestTypeAttentionNilWhenCFODisabled(t *testing.T) {
	m, b, _ := trainHAG(t, Config{Seed: 2, DisableCFO: true})
	if m.TypeAttention(b) != nil {
		t.Fatal("CFO(-) should have no type attention")
	}
}

func TestInfluenceDistributionSumsToOne(t *testing.T) {
	m, b, _ := trainHAG(t, Config{Seed: 3, Hidden: []int{6}})
	d := m.InfluenceDistribution(b, 0)
	var sum float64
	for _, v := range d {
		if v < 0 {
			t.Fatal("negative influence")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("influence distribution sums to %v", sum)
	}
}

// TestInfluenceConcentratesInClique: a clique node's influence should
// come mostly from inside its clique (the Fig. 9 observation).
func TestInfluenceConcentratesInClique(t *testing.T) {
	m, b, _ := trainHAG(t, Config{Seed: 4, Hidden: []int{6}})
	d := m.InfluenceDistribution(b, 0) // node 0 is in the 0-3 clique
	var clique, outside float64
	for j, v := range d {
		if j < 4 {
			clique += v
		} else {
			outside += v
		}
	}
	if clique <= outside {
		t.Fatalf("clique influence %v should exceed outside %v", clique, outside)
	}
}

func TestInfluenceMatrixShape(t *testing.T) {
	m, b, _ := trainHAG(t, Config{Seed: 5, Hidden: []int{4}})
	im := m.InfluenceMatrix(b)
	if im.Rows != b.NumNodes || im.Cols != b.NumNodes {
		t.Fatalf("influence matrix %dx%d", im.Rows, im.Cols)
	}
	// Each column is a distribution.
	for i := 0; i < im.Cols; i++ {
		var sum float64
		for j := 0; j < im.Rows; j++ {
			sum += im.At(j, i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", i, sum)
		}
	}
}

func TestHAGSerializationRoundtrip(t *testing.T) {
	m, b, scores := trainHAG(t, Config{Seed: 6})
	var buf bytes.Buffer
	if err := nn.SaveState(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2 := New(Config{InDim: 4, NumEdgeTypes: 2, Hidden: []int{8, 8}, AttHidden: 4, Seed: 999})
	if err := nn.LoadState(&buf, m2); err != nil {
		t.Fatal(err)
	}
	got := gnn.Scores(m2, b)
	for i := range scores {
		if math.Abs(scores[i]-got[i]) > 1e-12 {
			t.Fatalf("loaded HAG differs at node %d: %v vs %v", i, scores[i], got[i])
		}
	}
}

func TestConfigPanicsWithoutEdgeTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{InDim: 4})
}

func TestParameterCountsDifferByVariant(t *testing.T) {
	full := New(Config{InDim: 4, NumEdgeTypes: 3, Hidden: []int{8}, AttHidden: 4})
	noCFO := New(Config{InDim: 4, NumEdgeTypes: 3, Hidden: []int{8}, AttHidden: 4, DisableCFO: true})
	if nn.ParamCount(full) <= nn.ParamCount(noCFO) {
		t.Fatal("full HAG should have more parameters than CFO(-)")
	}
}
