package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/bn"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/server"
)

var t0 = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func mk(u behavior.UserID, typ behavior.Type, val string, offset time.Duration) behavior.Log {
	return behavior.Log{User: u, Type: typ, Value: val, Time: t0.Add(offset)}
}

func newSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(Config{BN: bn.Config{Windows: []time.Duration{time.Hour}}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func attachModel(t *testing.T, sys *System) {
	t.Helper()
	dim := 2 + feature.NumStatFeatures()
	model := gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{4}, MLPHidden: 2, Seed: 1})
	sys.SetModel(model, nil)
}

func TestAuditWithoutModelErrors(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Audit(1, t0); err == nil {
		t.Fatal("audit must fail before SetModel")
	}
	if sys.API() != nil {
		t.Fatal("API should be nil before SetModel")
	}
}

func TestEndToEndLifecycle(t *testing.T) {
	sys := newSystem(t)
	attachModel(t, sys)

	// Two users share a device; both apply.
	sys.Ingest(mk(1, behavior.DeviceID, "dev", 10*time.Minute))
	sys.Ingest(mk(2, behavior.DeviceID, "dev", 20*time.Minute))
	for u := behavior.UserID(1); u <= 2; u++ {
		if err := sys.RegisterApplication(u, []float64{float64(u), 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	jobs := sys.Advance(t0.Add(2 * time.Hour))
	if jobs == 0 {
		t.Fatal("no window jobs ran")
	}
	if sys.BNServer().Snapshot().EdgeWeight(0, 1, 2) == 0 {
		t.Fatal("BN edge missing after Advance")
	}

	pred, err := sys.Audit(1, t0.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if pred.SubgraphNodes != 2 {
		t.Fatalf("subgraph nodes %d want 2", pred.SubgraphNodes)
	}
	if pred.Probability < 0 || pred.Probability > 1 {
		t.Fatalf("probability %v", pred.Probability)
	}
	if sys.API() == nil {
		t.Fatal("API should exist after SetModel")
	}
}

func TestDefaultThreshold(t *testing.T) {
	sys, err := New(Config{}, t0)
	if err != nil {
		t.Fatal(err)
	}
	attachModel(t, sys)
	if sys.PredictionServer().Threshold != 0.85 {
		t.Fatalf("default threshold %v want 0.85 (§VI-E)", sys.PredictionServer().Threshold)
	}
}

func TestInvalidBNConfigRejected(t *testing.T) {
	_, err := New(Config{BN: bn.Config{Windows: []time.Duration{2 * time.Hour, time.Hour}}}, t0)
	if err == nil {
		t.Fatal("invalid BN config accepted")
	}
}

func TestSampleOptionsPropagate(t *testing.T) {
	sys, err := New(Config{SampleHops: 1, MaxNeighbors: 3}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if sys.BNServer().SampleHops != 1 || sys.BNServer().MaxNeighbors != 3 {
		t.Fatal("sampling options not applied")
	}
}

func TestRegisterApplicationStoresProfile(t *testing.T) {
	sys := newSystem(t)
	if err := sys.RegisterApplication(5, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	vec, err := sys.Features().Vector(5, t0)
	if err != nil {
		t.Fatal(err)
	}
	if vec[0] != 1 || vec[1] != 2 {
		t.Fatalf("profile not stored: %v", vec[:2])
	}
	if !slices.Contains(sys.BNServer().Graph().Nodes(), 5) {
		t.Fatal("transaction node not registered")
	}
}

// TestEmbedTierServesAfterRetrainAndRollback swaps the model under a
// running embedding tier, by retrain and then by rollback: after each,
// an audit of a clean user is still answered from the table. The table
// serves only the model it was built for, so this holds only if the
// post-swap pass rebuilt it.
func TestEmbedTierServesAfterRetrainAndRollback(t *testing.T) {
	sys := newSystem(t)
	attachModel(t, sys)
	sys.Ingest(mk(1, behavior.DeviceID, "dev", 10*time.Minute))
	sys.Ingest(mk(2, behavior.DeviceID, "dev", 20*time.Minute))
	for u := behavior.UserID(1); u <= 2; u++ {
		if err := sys.RegisterApplication(u, []float64{float64(u), 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Advance(t0.Add(2 * time.Hour))
	eng, err := sys.EnableEmbedTier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RebuildOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	at := t0.Add(3 * time.Hour)
	audit := func(step string) {
		t.Helper()
		for u := behavior.UserID(1); u <= 2; u++ {
			p, err := sys.Audit(u, at)
			if err != nil {
				t.Fatal(err)
			}
			if p.ServedBy != server.TierEmbed {
				t.Fatalf("%s: user %d served by %q, want %q", step, u, p.ServedBy, server.TierEmbed)
			}
		}
	}
	audit("boot")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dim := 2 + feature.NumStatFeatures()
	mgr, err := sys.StartRetraining(ctx, time.Hour, func() (gnn.Model, func([]float64) []float64, error) {
		return gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{4}, MLPHidden: 2, Seed: 2}), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.RetrainOnce(); err != nil {
		t.Fatal(err)
	}
	audit("retrain")
	if err := mgr.Rollback("test"); err != nil {
		t.Fatal(err)
	}
	audit("rollback")
}
