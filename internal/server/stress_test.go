package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// TestSampleServedFromSnapshot: after Advance, predictions must be
// served from the published epoch, and the epoch must advance with every
// tick.
func TestSampleServedFromSnapshot(t *testing.T) {
	bnServer, _ := newTestStack(t)
	snap := bnServer.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot published after Advance")
	}
	if !snap.HasNode(1) {
		t.Fatal("registered user missing from snapshot")
	}
	e1 := snap.Epoch()
	bnServer.Advance(t0.Add(3 * time.Hour))
	if e2 := bnServer.Snapshot().Epoch(); e2 <= e1 {
		t.Fatalf("epoch did not advance: %d then %d", e1, e2)
	}
}

// TestFreshUserAuditedAsLoneNode: a user registered after the last
// Advance tick is not in the snapshot yet, and has no edges yet either:
// edges are written only by Advance and recovery, which both publish a
// snapshot. Its audit samples it as a lone node on the full tier and
// scores it bitwise as the tape does over that one-node batch.
func TestFreshUserAuditedAsLoneNode(t *testing.T) {
	bnServer, pred := newTestStack(t)
	bnServer.RegisterTransaction(99) // no Advance afterwards
	if bnServer.Snapshot().HasNode(99) {
		t.Fatal("stale snapshot unexpectedly contains the fresh user")
	}
	feats := featureSource(pred).(*feature.Service)
	if err := feats.PutProfile(99, []float64{99, 1}); err != nil {
		t.Fatal(err)
	}
	sg := bnServer.Sample(99)
	if sg.NumNodes() != 1 || sg.Nodes[0] != 99 {
		t.Fatalf("fresh user sample wrong: %v", sg.Nodes)
	}
	at := t0.Add(3 * time.Hour)
	p, err := pred.Predict(99, at)
	if err != nil || p.ServedBy != TierFull || p.SubgraphNodes != 1 {
		t.Fatalf("fresh user audit %+v, %v; want the full tier over one node", p, err)
	}
	vec, err := feats.VectorCtx(context.Background(), 99, at)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, len(vec))
	copy(x.Row(0), vec)
	if want := gnn.TapeScores(pred.Serving().Model, gnn.NewBatch(sg, x))[0]; p.Probability != want {
		t.Fatalf("fresh user scored %v, tape over the lone node %v", p.Probability, want)
	}
}

// TestConcurrentIngestAdvancePredict is the ingest-vs-predict stress
// test of Fig. 2/§V: window jobs, transaction registrations and log
// ingestion run concurrently with sampling. Run with -race — this is the
// regression test for the hasTxn filter-closure race (the closure used
// to read the map after the guarding mutex was released) and for the
// snapshot publication protocol.
func TestConcurrentIngestAdvancePredict(t *testing.T) {
	bnServer, err := NewBNServer(bn.Config{Windows: []time.Duration{time.Hour}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	const users = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // ingest + register stream
		defer wg.Done()
		for i := 0; i < 600; i++ {
			u := behavior.UserID(i % users)
			bnServer.Ingest(mk(u, behavior.DeviceID, fmt.Sprintf("d%d", i%8), time.Duration(i)*time.Minute))
			bnServer.RegisterTransaction(u)
		}
	}()

	wg.Add(1)
	go func() { // scheduler ticks (window jobs + prune + re-snapshot)
		defer wg.Done()
		for i := 1; i <= 30; i++ {
			bnServer.Advance(t0.Add(time.Duration(i) * time.Hour))
		}
	}()

	for r := 0; r < 4; r++ { // prediction read path
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				bnServer.Sample(behavior.UserID((i + r) % users))
			}
		}(r)
	}

	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-writersDone

	// Final tick publishes a consistent epoch.
	bnServer.Advance(t0.Add(48 * time.Hour))
	snap := bnServer.Snapshot()
	if snap.NumNodes() == 0 {
		t.Fatal("stress run produced an empty BN")
	}
	if got, want := len(snap.Edges()), snap.NumEdges(); got != want {
		t.Fatalf("snapshot inconsistent after stress: %d listed, counter %d", got, want)
	}
}
