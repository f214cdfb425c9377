package server

import (
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
)

var t0 = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

func mk(u behavior.UserID, typ behavior.Type, val string, offset time.Duration) behavior.Log {
	return behavior.Log{User: u, Type: typ, Value: val, Time: t0.Add(offset)}
}

// newTestStack wires a BN server, feature service and prediction server
// around a tiny trained GraphSAGE model. Users 1 and 2 share a device
// within an hour; user 3 is unrelated.
func newTestStack(t testing.TB) (*BNServer, *PredictionServer) {
	t.Helper()
	bnServer, err := NewBNServer(bn.Config{Windows: []time.Duration{time.Hour}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	logs := []behavior.Log{
		mk(1, behavior.DeviceID, "shared", 10*time.Minute),
		mk(2, behavior.DeviceID, "shared", 20*time.Minute),
		mk(3, behavior.IPv4, "lonely", 30*time.Minute),
	}
	bnServer.IngestBatch(logs)
	for u := behavior.UserID(1); u <= 3; u++ {
		bnServer.RegisterTransaction(u)
	}
	bnServer.Advance(t0.Add(2 * time.Hour))

	feats := feature.NewService(feature.Config{}, bnServer.Store())
	dim := 2 + feature.NumStatFeatures()
	for u := behavior.UserID(1); u <= 3; u++ {
		if err := feats.PutProfile(u, []float64{float64(u), 1}); err != nil {
			t.Fatal(err)
		}
	}
	model := gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{4}, MLPHidden: 2, Seed: 1})
	pred := NewPredictionServer(bnServer, feats, model, nil, 0.5)
	return bnServer, pred
}

// cachedScores copies the tier-3 cache of pred's current serving version.
func cachedScores(pred *PredictionServer) map[behavior.UserID]float64 {
	out := make(map[behavior.UserID]float64)
	c := pred.Serving().scores
	c.m.Range(func(k, _ any) bool {
		u := k.(behavior.UserID)
		out[u], _ = c.load(u)
		return true
	})
	return out
}

func TestBNServerBuildsEdgesFromIngest(t *testing.T) {
	bnServer, _ := newTestStack(t)
	g := bnServer.Snapshot()
	if g.EdgeWeight(0, 1, 2) == 0 {
		t.Fatal("shared device did not create an edge")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges %d want 1", g.NumEdges())
	}
}

func TestSampleFiltersToTransactionUsers(t *testing.T) {
	bnServer, err := NewBNServer(bn.Config{Windows: []time.Duration{time.Hour}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	bnServer.IngestBatch([]behavior.Log{
		mk(1, behavior.DeviceID, "d", time.Minute),
		mk(2, behavior.DeviceID, "d", 2*time.Minute), // no transaction
	})
	bnServer.RegisterTransaction(1)
	bnServer.Advance(t0.Add(2 * time.Hour))
	sg := bnServer.Sample(1)
	if sg.NumNodes() != 1 {
		t.Fatalf("non-transaction neighbor included: %d nodes", sg.NumNodes())
	}

	// The audit path samples the same way, and records its sample once.
	feats := feature.NewService(feature.Config{}, bnServer.Store())
	if err := feats.PutProfile(1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	model := gnn.NewGraphSAGE(gnn.Config{InDim: 2 + feature.NumStatFeatures(), Hidden: []int{2}, MLPHidden: 2})
	pred := NewPredictionServer(bnServer, feats, model, nil, 0.5)
	p, err := pred.Predict(1, t0.Add(3*time.Hour))
	if err != nil || p.SubgraphNodes != 1 {
		t.Fatalf("audit %+v, %v: want a one-node sample", p, err)
	}
	if n := pred.LatencySummaries()["sampling"].Count; n != 1 {
		t.Fatalf("sampling latency recorded %d times, want 1", n)
	}
}

func TestPredictEndToEnd(t *testing.T) {
	_, pred := newTestStack(t)
	p, err := pred.Predict(1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p.User != 1 || p.Probability < 0 || p.Probability > 1 {
		t.Fatalf("prediction %+v", p)
	}
	if p.SubgraphNodes < 2 {
		t.Fatalf("subgraph should include the device-sharing neighbor: %d", p.SubgraphNodes)
	}
	if p.TotalLatency <= 0 || p.SampleLatency < 0 || p.PredictLatency <= 0 {
		t.Fatalf("latency fields %+v", p)
	}
	sums := pred.LatencySummaries()
	for _, key := range []string{"sampling", "features", "predict", "total"} {
		if sums[key].Count == 0 {
			t.Fatalf("latency summary %q empty", key)
		}
	}
}

func TestPredictMissingFeaturesErrors(t *testing.T) {
	bnServer, err := NewBNServer(bn.Config{Windows: []time.Duration{time.Hour}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	bnServer.RegisterTransaction(9)
	feats := feature.NewService(feature.Config{}, bnServer.Store())
	model := gnn.NewGraphSAGE(gnn.Config{InDim: 2 + feature.NumStatFeatures(), Hidden: []int{2}, MLPHidden: 2})
	pred := NewPredictionServer(bnServer, feats, model, nil, 0.5)
	if _, err := pred.Predict(9, t0); err == nil {
		t.Fatal("expected error for user without a stored profile")
	}
}

func TestPredictAppliesNormalizer(t *testing.T) {
	_, pred := newTestStack(t)
	p1, err := pred.Predict(3, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	pred.SwapModel(pred.Serving().Model, func(vec []float64) []float64 {
		out := make([]float64, len(vec))
		for i := range vec {
			out[i] = vec[i] * 100
		}
		return out
	})
	p2, err := pred.Predict(3, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Probability == p2.Probability {
		t.Fatal("normalizer had no effect on prediction")
	}
}

func TestThresholdControlsBlocking(t *testing.T) {
	_, pred := newTestStack(t)
	pred.Threshold = 0 // everything blocks
	p, err := pred.Predict(1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fraud {
		t.Fatal("threshold 0 must flag everything")
	}
	pred.Threshold = 1.1 // nothing blocks
	p, _ = pred.Predict(1, t0.Add(time.Hour))
	if p.Fraud {
		t.Fatal("threshold >1 must flag nothing")
	}
}
