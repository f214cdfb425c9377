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

// newFanoutStack builds a stack whose audit subgraphs are wide enough to
// exercise the parallel feature fan-out: n users all sharing one device
// (a star), each with a stored profile and a registered transaction.
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
	pred := NewPredictionServer(bnServer, feats, model, 0.5)
	return bnServer, pred
}

// TestFanoutParallelMatchesSequential pins the parallel fan-out's scores
// to the sequential path's: worker count must never change an audit.
func TestFanoutParallelMatchesSequential(t *testing.T) {
	_, pred := newFanoutStack(t, 12)
	at := t0.Add(3 * time.Hour)

	pred.FanoutWorkers = 1
	var want []Prediction
	for u := behavior.UserID(1); u <= 12; u++ {
		p, err := pred.Predict(u, at)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}

	for _, workers := range []int{2, 4, 8} {
		pred.FanoutWorkers = workers
		for u := behavior.UserID(1); u <= 12; u++ {
			p, err := pred.Predict(u, at)
			if err != nil {
				t.Fatal(err)
			}
			w := want[u-1]
			if p.Probability != w.Probability || p.Fraud != w.Fraud || p.SubgraphNodes != w.SubgraphNodes {
				t.Fatalf("workers=%d user %d: %+v differs from sequential %+v", workers, u, p, w)
			}
			if p.ServedBy != w.ServedBy {
				t.Fatalf("workers=%d user %d: tier %q vs %q", workers, u, p.ServedBy, w.ServedBy)
			}
		}
	}
}

// TestFanoutTargetNotFound verifies the parallel fan-out preserves the
// 404 contract: a missing profile for the audited user surfaces as
// ErrUnknownUser regardless of fetch scheduling.
func TestFanoutTargetNotFound(t *testing.T) {
	_, pred := newFanoutStack(t, 4)
	for _, workers := range []int{1, 4} {
		pred.FanoutWorkers = workers
		_, err := pred.Predict(99, t0.Add(3*time.Hour))
		if !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("workers=%d: err %v want ErrUnknownUser", workers, err)
		}
	}
}

// TestFanoutConcurrentAudits hammers one prediction server from many
// goroutines with the parallel fan-out enabled (run with -race: pooled
// feature matrices and the in-flight gauge must stay coherent).
func TestFanoutConcurrentAudits(t *testing.T) {
	_, pred := newFanoutStack(t, 8)
	pred.FanoutWorkers = 4
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
	if got := pred.fanoutInFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge did not settle to 0: %d", got)
	}
}

// TestFanoutWorkerCount pins the adaptive fan-out policy: FanoutWorkers=0
// stays sequential below serialFanoutThreshold nodes (the parallel pool
// is slower than the serial loop there — see BENCH_infer.json), scales
// to the default pool above it, and explicit settings are honored,
// clamped to the node count.
func TestFanoutWorkerCount(t *testing.T) {
	p := &PredictionServer{}

	for _, n := range []int{1, 2, 8, serialFanoutThreshold - 1} {
		if got := p.fanoutWorkerCount(n); got != 1 {
			t.Errorf("adaptive fanoutWorkerCount(%d) = %d, want 1 (serial)", n, got)
		}
	}
	want := defaultFanoutWorkers()
	if got := p.fanoutWorkerCount(serialFanoutThreshold); got != want {
		t.Errorf("adaptive fanoutWorkerCount(%d) = %d, want %d", serialFanoutThreshold, got, want)
	}
	if got := p.fanoutWorkerCount(10 * serialFanoutThreshold); got != want {
		t.Errorf("adaptive fanoutWorkerCount(%d) = %d, want %d", 10*serialFanoutThreshold, got, want)
	}

	p.FanoutWorkers = 4
	if got := p.fanoutWorkerCount(2); got != 2 {
		t.Errorf("explicit 4 over 2 nodes = %d, want clamp to 2", got)
	}
	if got := p.fanoutWorkerCount(100); got != 4 {
		t.Errorf("explicit 4 over 100 nodes = %d, want 4", got)
	}

	p.FanoutWorkers = 1
	if got := p.fanoutWorkerCount(1000); got != 1 {
		t.Errorf("explicit 1 = %d, want 1 (forced serial)", got)
	}
}

// BenchmarkFeatureFanout isolates the feature stage at different worker
// counts over a 16-node star subgraph.
func BenchmarkFeatureFanout(b *testing.B) {
	bnServer, pred := newFanoutStack(b, 16)
	at := t0.Add(3 * time.Hour)
	sg := bnServer.Sample(1)
	ctx := context.Background()
	// workers=0 is the adaptive default (serial at this subgraph size).
	for _, workers := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pred.FanoutWorkers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, err := pred.fanoutFeatures(ctx, pred.feats, nil, sg, 1, at)
				if err != nil {
					b.Fatal(err)
				}
				tensor.PutMatrix(x)
			}
		})
	}
}
