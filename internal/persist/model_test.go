package persist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/hag"
	"turbo/internal/tensor"
)

func newTestStore(t *testing.T, dir string) *ModelStore {
	t.Helper()
	s, err := NewModelStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testBatch builds a tiny deterministic graph, extracts a full subgraph
// around node 0, and pairs it with a seeded random feature matrix.
func testBatch(t *testing.T, numTypes, dim int) *gnn.Batch {
	t.Helper()
	never := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	g := graph.New(numTypes)
	for u := graph.NodeID(0); u < 6; u++ {
		g.AddNode(u)
	}
	edges := [][3]int{{0, 1, 0}, {0, 2, 1}, {1, 3, 0}, {2, 4, 1}, {3, 5, 0}, {0, 5, 1}}
	for _, e := range edges {
		et := graph.EdgeType(e[2] % numTypes)
		if err := g.AddEdgeWeight(et, graph.NodeID(e[0]), graph.NodeID(e[1]), 1.0+float64(e[2]), never); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.Snapshot()
	sg := &graph.Subgraph{TypedEdges: make([][]graph.LocalEdge, g.NumEdgeTypes())}
	for u := graph.NodeID(0); u < 6; u++ {
		sg.Nodes = append(sg.Nodes, u)
		sg.Hops = append(sg.Hops, 0)
	}
	for et := 0; et < g.NumEdgeTypes(); et++ {
		for i, u := range sg.Nodes {
			for _, nb := range snap.NeighborsByType(u, graph.EdgeType(et)) {
				sg.TypedEdges[et] = append(sg.TypedEdges[et], graph.LocalEdge{
					Src: i, Dst: int(nb.Node), Weight: nb.Weight,
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(len(sg.Nodes), dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return gnn.NewBatch(sg, x)
}

func TestModelStoreRoundtripBitwise(t *testing.T) {
	const dim, numTypes = 5, 2
	builders := map[string]func() gnn.Model{
		"gcn": func() gnn.Model {
			return gnn.NewGCN(gnn.Config{InDim: dim, Hidden: []int{8, 4}, MLPHidden: 3, Seed: 11})
		},
		"graphsage": func() gnn.Model {
			return gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{8, 4}, MLPHidden: 3, Seed: 12})
		},
		"gat": func() gnn.Model {
			return gnn.NewGAT(gnn.Config{InDim: dim, Hidden: []int{8, 4}, MLPHidden: 3, Heads: 2, Seed: 13})
		},
		"hag": func() gnn.Model {
			return hag.New(hag.Config{InDim: dim, NumEdgeTypes: numTypes, Hidden: []int{8, 4}, AttHidden: 4, MLPHidden: 3, Seed: 14})
		},
	}
	for kind, build := range builders {
		t.Run(kind, func(t *testing.T) {
			store := newTestStore(t, t.TempDir())
			m := build()
			batch := testBatch(t, numTypes, dim)
			want := gnn.Scores(m, batch)

			man, err := store.Save(m, Extras{})
			if err != nil {
				t.Fatal(err)
			}
			if man.Kind != kind || man.Version != 1 || man.InDim != dim {
				t.Fatalf("manifest %+v", man)
			}
			lm, err := store.LoadLatest()
			if err != nil {
				t.Fatal(err)
			}
			got := gnn.Scores(lm.Model, batch)
			if len(got) != len(want) {
				t.Fatalf("score count %d want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] { // bitwise, not within-epsilon
					t.Fatalf("%s score %d: %v != %v after reload", kind, i, got[i], want[i])
				}
			}
		})
	}
}

func TestModelStoreExtrasRoundtrip(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	lr := &baselines.LogisticRegression{}
	lr.SetWeights([]float64{0.5, -1.25, 3e-7}, 0.125)
	ex := Extras{
		NormMean: []float64{1, 2, 3},
		NormStd:  []float64{0.5, 1, 2},
		Fallback: lr,
	}
	m := gnn.NewGCN(gnn.Config{InDim: 3, Hidden: []int{4}, MLPHidden: 2, Seed: 5})
	if _, err := store.Save(m, ex); err != nil {
		t.Fatal(err)
	}
	lm, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex.NormMean {
		if lm.NormMean[i] != ex.NormMean[i] || lm.NormStd[i] != ex.NormStd[i] {
			t.Fatalf("normalizer stats differ at %d", i)
		}
	}
	if lm.Fallback == nil {
		t.Fatal("fallback dropped")
	}
	x := tensor.FromRows([][]float64{{1, 0, 2}, {-3, 4, 0.5}})
	want := lr.PredictProba(x)
	got := lm.Fallback.PredictProba(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback proba %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestModelStoreCorruptFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	store := newTestStore(t, dir)
	m1 := gnn.NewGCN(gnn.Config{InDim: 3, Hidden: []int{4}, MLPHidden: 2, Seed: 5})
	m2 := gnn.NewGCN(gnn.Config{InDim: 3, Hidden: []int{4}, MLPHidden: 2, Seed: 99})
	if _, err := store.Save(m1, Extras{}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(m2, Extras{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt v2's binary blob.
	path := filepath.Join(dir, modelName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	lm, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Manifest.Version != 1 {
		t.Fatalf("loaded version %d, want fallback to 1", lm.Manifest.Version)
	}
}

func TestModelStoreEmpty(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	if _, err := store.LoadLatest(); !errors.Is(err, ErrNoArtifact) {
		t.Fatalf("err %v want ErrNoArtifact", err)
	}
}

func testGCN(seed uint64) gnn.Model {
	return gnn.NewGCN(gnn.Config{InDim: 3, Hidden: []int{4}, MLPHidden: 2, Seed: seed})
}

func TestModelStoreQuarantinedNeverAutoLoaded(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	if _, err := store.Save(testGCN(5), Extras{}); err != nil { // v1 accepted
		t.Fatal(err)
	}
	man, err := store.SaveStatus(testGCN(99), Extras{}, StatusQuarantined,
		[]string{"holdout AUC 0.5012 below floor 0.8000"})
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != 2 || man.Status != StatusQuarantined || len(man.Reasons) != 1 {
		t.Fatalf("quarantined manifest %+v", man)
	}
	lm, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Manifest.Version != 1 {
		t.Fatalf("LoadLatest served v%d, want the accepted v1", lm.Manifest.Version)
	}
	// The quarantined artifact is still on disk with its reasons.
	mans := store.List()
	if len(mans) != 2 {
		t.Fatalf("List returned %d manifests, want 2", len(mans))
	}
	if mans[1].Status != StatusQuarantined || len(mans[1].Reasons) != 1 {
		t.Fatalf("quarantined lineage entry %+v", mans[1])
	}
}

func TestModelStoreOnlyQuarantinedIsNoArtifact(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	if _, err := store.SaveStatus(testGCN(7), Extras{}, StatusQuarantined, []string{"bad"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadLatest(); !errors.Is(err, ErrNoArtifact) {
		t.Fatalf("err %v want ErrNoArtifact when only quarantined artifacts exist", err)
	}
}

func TestModelStoreLoadPreviousAccepted(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	for i := 0; i < 3; i++ { // v1..v3 accepted
		if _, err := store.Save(testGCN(uint64(i+1)), Extras{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.SaveStatus(testGCN(50), Extras{}, StatusQuarantined, nil); err != nil { // v4
		t.Fatal(err)
	}
	lm, err := store.LoadPreviousAccepted(3)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Manifest.Version != 2 {
		t.Fatalf("previous accepted before v3 = v%d, want v2", lm.Manifest.Version)
	}
	// Before v1 there is nothing.
	if _, err := store.LoadPreviousAccepted(1); !errors.Is(err, ErrNoArtifact) {
		t.Fatalf("err %v want ErrNoArtifact before v1", err)
	}
}

func TestModelStoreSetStatusExcludesFromBoot(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	if _, err := store.Save(testGCN(1), Extras{}); err != nil { // v1
		t.Fatal(err)
	}
	if _, err := store.Save(testGCN(2), Extras{}); err != nil { // v2
		t.Fatal(err)
	}
	// Monitor rolled v2 back: a restart must boot v1.
	if err := store.SetStatus(2, StatusRolledBack, "error rate 0.5 above ceiling 0.05"); err != nil {
		t.Fatal(err)
	}
	lm, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Manifest.Version != 1 {
		t.Fatalf("boot loaded v%d after v2 was rolled back, want v1", lm.Manifest.Version)
	}
	mans := store.List()
	if mans[1].Status != StatusRolledBack || len(mans[1].Reasons) != 1 {
		t.Fatalf("rolled-back lineage entry %+v", mans[1])
	}
	if err := store.SetStatus(42, StatusQuarantined); err == nil {
		t.Fatal("SetStatus on a missing version should fail")
	}
}

func TestManifestLoadable(t *testing.T) {
	cases := []struct {
		status string
		want   bool
	}{
		{"", true}, // pre-lifecycle artifact
		{StatusAccepted, true},
		{StatusQuarantined, false},
		{StatusRolledBack, false},
	}
	for _, c := range cases {
		if got := (Manifest{Status: c.status}).Loadable(); got != c.want {
			t.Fatalf("Loadable(%q) = %v, want %v", c.status, got, c.want)
		}
	}
}
