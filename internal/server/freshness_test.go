package server

import (
	"fmt"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/tensor"
)

// TestFullPathScoresFreshFeaturesAfterBurst audits u, ingests a burst of
// logs for u that lands inside the statistical windows, and audits u
// again at the same time: the full path must score the tape over
// features computed by StatFeatures at audit time, not the vector of the
// first audit.
func TestFullPathScoresFreshFeaturesAfterBurst(t *testing.T) {
	bnServer, pred := newTestStack(t)
	feats := featureSource(pred).(*feature.Service)
	at := t0.Add(3 * time.Hour)
	before, err := pred.Predict(1, at)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		bnServer.Ingest(mk(1, behavior.IPv4, fmt.Sprintf("burst-%d", i), 2*time.Hour+time.Duration(i)*time.Minute))
	}
	after, err := pred.Predict(1, at)
	if err != nil {
		t.Fatal(err)
	}

	sg := bnServer.Sample(1)
	var x *tensor.Matrix
	for i, node := range sg.Nodes {
		p, err := feats.Profile(behavior.UserID(node))
		if err != nil {
			t.Fatal(err)
		}
		vec := append(append([]float64(nil), p...), feats.StatFeatures(behavior.UserID(node), at)...)
		if x == nil {
			x = tensor.New(sg.NumNodes(), len(vec))
		}
		copy(x.Row(i), vec)
	}
	want := gnn.TapeScore(pred.Serving().Model, gnn.NewBatch(sg, x))
	if after.ServedBy != TierFull || after.Probability != want {
		t.Fatalf("after the burst: served %q %v, want %q %v (the tape over features at audit time)", after.ServedBy, after.Probability, TierFull, want)
	}
	if before.Probability == want {
		t.Fatal("the burst did not move the score; the test cannot tell fresh features from stale ones")
	}
}
