package baselines

import (
	"math"
	"testing"
	"time"

	"turbo/internal/graph"
	"turbo/internal/metrics"
	"turbo/internal/tensor"
)

var never = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// linearData generates labels from sign(2x1 - x2 + 0.5).
func linearData(n int, seed uint64) (*tensor.Matrix, []float64) {
	rng := tensor.NewRNG(seed)
	x := tensor.RandNormal(n, 2, 1, rng)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if 2*x.At(i, 0)-x.At(i, 1)+0.5 > 0 {
			y[i] = 1
		}
	}
	return x, y
}

// xorData is not linearly separable: label = (x1>0) xor (x2>0).
func xorData(n int, seed uint64) (*tensor.Matrix, []float64) {
	rng := tensor.NewRNG(seed)
	x := tensor.RandNormal(n, 2, 1, rng)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if (x.At(i, 0) > 0) != (x.At(i, 1) > 0) {
			y[i] = 1
		}
	}
	return x, y
}

func auc(clf Classifier, x *tensor.Matrix, y []float64) float64 {
	scores := clf.PredictProba(x)
	labels := make([]bool, len(y))
	for i, v := range y {
		labels[i] = v > 0.5
	}
	return metrics.AUC(scores, labels)
}

func TestLogisticRegressionSeparable(t *testing.T) {
	x, y := linearData(400, 1)
	clf := &LogisticRegression{}
	clf.Fit(x, y)
	if a := auc(clf, x, y); a < 0.97 {
		t.Fatalf("LR AUC on separable data: %v", a)
	}
	xt, yt := linearData(200, 2)
	if a := auc(clf, xt, yt); a < 0.95 {
		t.Fatalf("LR holdout AUC: %v", a)
	}
}

func TestLinearSVMSeparable(t *testing.T) {
	x, y := linearData(400, 3)
	clf := &LinearSVM{}
	clf.Fit(x, y)
	if a := auc(clf, x, y); a < 0.95 {
		t.Fatalf("SVM AUC on separable data: %v", a)
	}
}

func TestLinearModelsFailOnXOR(t *testing.T) {
	x, y := xorData(500, 4)
	lr := &LogisticRegression{}
	lr.Fit(x, y)
	if a := auc(lr, x, y); a > 0.65 {
		t.Fatalf("linear model should not solve XOR: AUC %v", a)
	}
}

func TestGBDTSolvesXOR(t *testing.T) {
	x, y := xorData(600, 5)
	clf := &GBDT{}
	clf.Fit(x, y)
	if a := auc(clf, x, y); a < 0.95 {
		t.Fatalf("GBDT XOR AUC: %v", a)
	}
	xt, yt := xorData(300, 6)
	if a := auc(clf, xt, yt); a < 0.9 {
		t.Fatalf("GBDT XOR holdout AUC: %v", a)
	}
}

func TestDNNSolvesXOR(t *testing.T) {
	x, y := xorData(600, 7)
	clf := &DNN{Hidden: []int{16, 8}, Epochs: 400, LR: 5e-3}
	clf.Fit(x, y)
	if a := auc(clf, x, y); a < 0.93 {
		t.Fatalf("DNN XOR AUC: %v", a)
	}
}

func TestClassifierNames(t *testing.T) {
	for want, clf := range map[string]Classifier{
		"LR":   &LogisticRegression{},
		"SVM":  &LinearSVM{},
		"GBDT": &GBDT{},
		"DNN":  &DNN{},
	} {
		if clf.Name() != want {
			t.Fatalf("name %q want %q", clf.Name(), want)
		}
	}
	if (&BLP{}).Name() != "BLP" {
		t.Fatal("BLP name")
	}
	if (&DTX{}).Name() != "DTX1" || (&DTX{WithFeatures: true}).Name() != "DTX2" {
		t.Fatal("DTX names")
	}
}

func TestBalanceLiftsMinorityRecall(t *testing.T) {
	// 5% positive rate with a weak signal: balanced training should
	// recall more positives at threshold 0.5.
	rng := tensor.NewRNG(8)
	n := 2000
	x := tensor.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		pos := rng.Float64() < 0.05
		shift := 0.0
		if pos {
			y[i] = 1
			shift = 1.2
		}
		x.Set(i, 0, rng.NormFloat64()+shift)
		x.Set(i, 1, rng.NormFloat64())
	}
	recallOf := func(balance bool) float64 {
		clf := &LogisticRegression{Balance: balance}
		clf.Fit(x, y)
		scores := clf.PredictProba(x)
		labels := make([]bool, n)
		for i := range y {
			labels[i] = y[i] > 0.5
		}
		return metrics.Confuse(scores, labels, 0.5).Recall()
	}
	if rb, ru := recallOf(true), recallOf(false); rb <= ru {
		t.Fatalf("balanced recall %v should exceed unbalanced %v", rb, ru)
	}
}

func TestClassWeightsSqrt(t *testing.T) {
	y := []float64{1, 0, 0, 0} // 1 pos, 3 neg
	pos, neg := classWeights(y)
	if neg != 1 || math.Abs(pos-math.Sqrt(3)) > 1e-12 {
		t.Fatalf("weights %v %v", pos, neg)
	}
	if p, n := classWeights([]float64{1, 1}); p != 1 || n != 1 {
		t.Fatal("single-class weights should be 1,1")
	}
}

func TestStandardize(t *testing.T) {
	train := tensor.FromRows([][]float64{{0, 10}, {2, 10}})
	other := tensor.FromRows([][]float64{{1, 10}})
	st, others := Standardize(train, other)
	// Column 0: mean 1, std 1 → {-1, 1}; column 1 constant → centered.
	if st.At(0, 0) != -1 || st.At(1, 0) != 1 {
		t.Fatalf("standardized train %v", st)
	}
	if st.At(0, 1) != 0 || st.At(1, 1) != 0 {
		t.Fatalf("constant column should center to 0: %v", st)
	}
	if others[0].At(0, 0) != 0 {
		t.Fatalf("transform not applied to other: %v", others[0])
	}
}

func TestRegressionTreeDepthLimit(t *testing.T) {
	rng := tensor.NewRNG(9)
	x := tensor.RandNormal(200, 3, 1, rng)
	g := make([]float64, 200)
	h := make([]float64, 200)
	idx := make([]int, 200)
	for i := range g {
		g[i] = rng.NormFloat64()
		h[i] = 1
		idx[i] = i
	}
	tree := fitTree(x, g, h, idx, treeParams{maxDepth: 2, minLeaf: 5, lambda: 1, featureSample: 1})
	if d := tree.depth(); d > 2 {
		t.Fatalf("tree depth %d exceeds limit", d)
	}
}

func TestRegressionTreeMinLeaf(t *testing.T) {
	// With minLeaf = half the data, at most one split is possible.
	x := tensor.FromRows([][]float64{{1}, {2}, {3}, {4}})
	g := []float64{-1, -1, 1, 1}
	h := []float64{1, 1, 1, 1}
	tree := fitTree(x, g, h, []int{0, 1, 2, 3}, treeParams{maxDepth: 5, minLeaf: 2, lambda: 0.01, featureSample: 1})
	if d := tree.depth(); d > 1 {
		t.Fatalf("minLeaf violated: depth %d", d)
	}
	// Leaf values are Newton steps in the negative-gradient direction:
	// g = -1 (underpredicted positives) must map to a positive leaf.
	if tree.predict([]float64{1}) <= 0 || tree.predict([]float64{4}) >= 0 {
		t.Fatalf("leaf values wrong: %v %v", tree.predict([]float64{1}), tree.predict([]float64{4}))
	}
}

func TestGBDTNumTreesAndRawScore(t *testing.T) {
	x, y := linearData(100, 10)
	clf := &GBDT{Trees: 7}
	clf.Fit(x, y)
	if clf.NumTrees() != 7 {
		t.Fatalf("trees %d", clf.NumTrees())
	}
	p := tensor.SigmoidScalar(clf.RawScore(x.Row(0)))
	if math.Abs(p-clf.PredictProba(x)[0]) > 1e-12 {
		t.Fatal("RawScore inconsistent with PredictProba")
	}
}

// --- graph-based baselines ---------------------------------------------------

// twoCliqueGraph returns two 4-cliques joined by one bridge edge.
func twoCliqueGraph(t *testing.T) (*graph.Snapshot, []graph.NodeID) {
	t.Helper()
	g := graph.New(2)
	addClique := func(base int, typ graph.EdgeType) {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if err := g.AddEdgeWeight(typ, graph.NodeID(base+i), graph.NodeID(base+j), 1, never); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	addClique(0, 0)
	addClique(4, 1)
	_ = g.AddEdgeWeight(0, 3, 4, 0.5, never)
	nodes := make([]graph.NodeID, 8)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return g.Snapshot(), nodes
}

func TestGraphFeaturesValues(t *testing.T) {
	g, nodes := twoCliqueGraph(t)
	gf := GraphFeatures(g, nodes)
	if gf.Rows != 8 || gf.Cols != 6+g.NumEdgeTypes() {
		t.Fatalf("shape %dx%d", gf.Rows, gf.Cols)
	}
	names := GraphFeatureNames(g.NumEdgeTypes())
	if len(names) != gf.Cols {
		t.Fatal("feature names length mismatch")
	}
	// Node 0: degree 3, clustering 1 (its neighbors form a clique).
	if gf.At(0, 0) != 3 {
		t.Fatalf("node0 degree %v", gf.At(0, 0))
	}
	if math.Abs(gf.At(0, 2)-1) > 1e-12 {
		t.Fatalf("node0 clustering %v want 1", gf.At(0, 2))
	}
	// Node 3 bridges: degree 4, clustering < 1.
	if gf.At(3, 0) != 4 || gf.At(3, 2) >= 1 {
		t.Fatalf("bridge node features %v", gf.Row(3))
	}
	// Per-type degree: node 0 has 3 type-0 edges, 0 type-1 edges.
	if gf.At(0, 6) != 3 || gf.At(0, 7) != 0 {
		t.Fatalf("typed degrees %v", gf.Row(0))
	}
}

func TestGraphFeaturesIsolatedNode(t *testing.T) {
	g := graph.New(1)
	g.AddNode(0)
	gf := GraphFeatures(g.Snapshot(), []graph.NodeID{0})
	for j := 0; j < gf.Cols; j++ {
		if gf.At(0, j) != 0 {
			t.Fatalf("isolated node feature %d = %v", j, gf.At(0, j))
		}
	}
}

func TestBLPBuildFeaturesConcat(t *testing.T) {
	g, nodes := twoCliqueGraph(t)
	orig := tensor.New(8, 3)
	blp := &BLP{}
	full := blp.BuildFeatures(g, nodes, orig)
	if full.Cols != 3+6+g.NumEdgeTypes() {
		t.Fatalf("cols %d", full.Cols)
	}
	graphOnly := blp.BuildFeatures(g, nodes, nil)
	if graphOnly.Cols != 6+g.NumEdgeTypes() {
		t.Fatalf("graph-only cols %d", graphOnly.Cols)
	}
}

// TestDeepWalkEmbedsCommunities: nodes in the same clique should end up
// closer in embedding space than nodes in different cliques.
func TestDeepWalkEmbedsCommunities(t *testing.T) {
	g, nodes := twoCliqueGraph(t)
	emb := DeepWalk(g, nodes, DeepWalkConfig{Dim: 16, WalksPerNode: 20, WalkLength: 8, Epochs: 5, Seed: 1})
	if emb.Rows != 8 || emb.Cols != 16 {
		t.Fatalf("embedding shape %dx%d", emb.Rows, emb.Cols)
	}
	dist := func(i, j int) float64 {
		var d float64
		for k := 0; k < emb.Cols; k++ {
			diff := emb.At(i, k) - emb.At(j, k)
			d += diff * diff
		}
		return math.Sqrt(d)
	}
	intra := (dist(0, 1) + dist(1, 2) + dist(5, 6)) / 3
	inter := (dist(0, 5) + dist(1, 6) + dist(2, 7)) / 3
	if intra >= inter {
		t.Fatalf("deepwalk: intra-clique distance %v should be below inter %v", intra, inter)
	}
}

func TestDeepWalkIsolatedNodesKeepInitVectors(t *testing.T) {
	g := graph.New(1)
	g.AddNode(0)
	g.AddNode(1)
	emb := DeepWalk(g.Snapshot(), []graph.NodeID{0, 1}, DeepWalkConfig{Dim: 8, Seed: 2})
	if emb.MaxAbs() == 0 {
		t.Fatal("isolated nodes should keep random init")
	}
}

func TestDTXBuildFeatures(t *testing.T) {
	g, nodes := twoCliqueGraph(t)
	orig := tensor.New(8, 2)
	d1 := &DTX{Walk: DeepWalkConfig{Dim: 8, Seed: 3}}
	if d1.BuildFeatures(g, nodes, orig).Cols != 8 {
		t.Fatal("DTX1 must use embeddings only")
	}
	d2 := &DTX{Walk: DeepWalkConfig{Dim: 8, Seed: 3}, WithFeatures: true}
	if d2.BuildFeatures(g, nodes, orig).Cols != 10 {
		t.Fatal("DTX2 must concat original features")
	}
}
