package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// newFanoutStack builds a stack whose audit subgraphs span many users: n
// users all sharing one device (a star), each with a stored profile and
// a registered transaction.
func newFanoutStack(tb testing.TB, n int) (*BNServer, *PredictionServer) {
	tb.Helper()
	bnServer, err := NewBNServer(bn.Config{Windows: []time.Duration{time.Hour}}, t0)
	if err != nil {
		tb.Fatal(err)
	}
	for u := behavior.UserID(1); u <= behavior.UserID(n); u++ {
		bnServer.Ingest(mk(u, behavior.DeviceID, "hub", time.Duration(u)*time.Minute))
		bnServer.RegisterTransaction(u)
	}
	bnServer.Advance(t0.Add(2 * time.Hour))

	feats := feature.NewService(feature.Config{}, bnServer.Store())
	dim := 2 + feature.NumStatFeatures()
	for u := behavior.UserID(1); u <= behavior.UserID(n); u++ {
		if err := feats.PutProfile(u, []float64{float64(u), 1}); err != nil {
			tb.Fatal(err)
		}
	}
	model := gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{4}, MLPHidden: 2, Seed: 1})
	pred := NewPredictionServer(bnServer, feats, model, nil, 0.5)
	return bnServer, pred
}

// TestFanoutParallelMatchesSequential pins the one-gather feature stage
// to the per-node reference: every audit scores exactly what a
// sequential VectorCtx per subgraph node, in node order, would feed the
// model.
func TestFanoutParallelMatchesSequential(t *testing.T) {
	bnServer, pred := newFanoutStack(t, 12)
	at := t0.Add(3 * time.Hour)
	feats := featureSource(pred).(*feature.Service)
	for u := behavior.UserID(1); u <= 12; u++ {
		p, err := pred.Predict(u, at)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := bnServer.SampleConeCtx(context.Background(), u, gnn.Depth(pred.Serving().Model))
		if err != nil {
			t.Fatal(err)
		}
		var x *tensor.Matrix
		for i, node := range sg.Nodes {
			vec, err := feats.VectorCtx(context.Background(), behavior.UserID(node), at)
			if err != nil {
				t.Fatal(err)
			}
			if x == nil {
				x = tensor.New(sg.NumNodes(), len(vec))
			}
			copy(x.Row(i), vec)
		}
		if want := gnn.Score(pred.Serving().Model, gnn.NewBatch(sg, x)); p.Probability != want || p.SubgraphNodes != sg.NumNodes() {
			t.Fatalf("user %d: %+v differs from the per-node fetch (probability %v, %d nodes)", u, p, want, sg.NumNodes())
		}
	}
}

// TestFanoutTargetNotFound verifies the gather preserves the 404
// contract: a missing profile for the audited user surfaces as
// ErrUnknownUser.
func TestFanoutTargetNotFound(t *testing.T) {
	_, pred := newFanoutStack(t, 4)
	if _, err := pred.Predict(99, t0.Add(3*time.Hour)); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err %v want ErrUnknownUser", err)
	}
}

// TestFanoutConcurrentAudits hammers one prediction server from many
// goroutines (run with -race: pooled feature matrices, the gather's
// scratch and the feature table must stay coherent).
func TestFanoutConcurrentAudits(t *testing.T) {
	_, pred := newFanoutStack(t, 8)
	at := t0.Add(3 * time.Hour)
	want, err := pred.Predict(1, at)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for rep := 0; rep < 25; rep++ {
				u := behavior.UserID(1 + (g+rep)%8)
				p, err := pred.Predict(u, at)
				if err != nil {
					errc <- err
					return
				}
				if u == 1 && p.Probability != want.Probability {
					errc <- fmt.Errorf("user 1 probability drifted: %v vs %v", p.Probability, want.Probability)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkFeatureFanout isolates the feature stage over a 16-node star
// subgraph.
func BenchmarkFeatureFanout(b *testing.B) {
	bnServer, pred := newFanoutStack(b, 16)
	at := t0.Add(3 * time.Hour)
	sg := bnServer.Sample(1)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, err := pred.gatherFeatures(ctx, pred.Serving().Feats, nil, sg, 1, at)
		if err != nil {
			b.Fatal(err)
		}
		tensor.PutMatrix(x)
	}
}
