package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
)

// TestSweepEngineRunOnce runs one full-graph re-score over the test
// stack and cross-checks it against the serving path: every
// audit-eligible user is scored, the last-known-score cache is filled,
// and each sweep score matches that user's tier-1 audit within 1e-12
// (the sweep is the same model over the same graph and features).
func TestSweepEngineRunOnce(t *testing.T) {
	bnServer, pred := newTestStack(t)
	eng := NewSweepEngine(bnServer, pred)
	rep, err := eng.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 3 || rep.Scored != 3 || rep.Skipped != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Fallback {
		t.Fatal("GraphSAGE should sweep, not fall back")
	}
	if rep.Workers < 1 || rep.Steps == 0 {
		t.Fatalf("report %+v", rep)
	}
	if last, ok := eng.LastReport(); !ok || last.Scored != 3 {
		t.Fatalf("last report %+v ok=%v", last, ok)
	}
	swept := cachedScores(pred)
	if len(swept) != 3 {
		t.Fatalf("score cache has %d entries, want 3", len(swept))
	}
	for u := behavior.UserID(1); u <= 3; u++ {
		p, err := pred.Predict(u, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if p.ServedBy != TierFull {
			t.Fatalf("user %d served by %s", u, p.ServedBy)
		}
		if math.Abs(p.Probability-swept[u]) > 1e-12 {
			t.Fatalf("user %d: sweep %v vs audit %v", u, swept[u], p.Probability)
		}
	}
}

// TestSweepEngineSkipsMissingProfiles registers a transaction user with
// no feature profile: the sweep must skip (and count) it, not abort.
func TestSweepEngineSkipsMissingProfiles(t *testing.T) {
	bnServer, pred := newTestStack(t)
	bnServer.RegisterTransaction(9) // no profile stored
	bnServer.Advance(t0.Add(3 * time.Hour))
	eng := NewSweepEngine(bnServer, pred)
	rep, err := eng.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 4 || rep.Scored != 3 || rep.Skipped != 1 {
		t.Fatalf("report %+v", rep)
	}
}

// TestModelManagerResweep checks the retrain integration: an accepted
// swap triggers the installed resweep hook, so the score cache reflects
// the new model when RetrainOnce returns.
func TestModelManagerResweep(t *testing.T) {
	bnServer, pred := newTestStack(t)
	eng := NewSweepEngine(bnServer, pred)
	dim := 2 + feature.NumStatFeatures()
	mgr := NewModelManager(pred, func() (gnn.Model, func([]float64) []float64, error) {
		return gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{4}, MLPHidden: 2, Seed: 7}), nil, nil
	})
	mgr.SetResweep(func() {
		if _, err := eng.RunOnce(context.Background()); err != nil {
			t.Errorf("resweep: %v", err)
		}
	})
	if err := mgr.RetrainOnce(); err != nil {
		t.Fatal(err)
	}
	rep, ok := eng.LastReport()
	if !ok || rep.Scored != 3 {
		t.Fatalf("resweep did not run: %+v ok=%v", rep, ok)
	}
}

// TestHTTPAdminSweep exercises POST /admin/sweep and the sweep section
// of /stats, including the 503 when no hook is configured and the 405 on
// GET.
func TestHTTPAdminSweep(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	eng := NewSweepEngine(bnServer, pred)
	api.Sweep = eng
	api.Admin.Sweep = func(ctx context.Context) (SweepReport, error) { return eng.RunOnce(ctx) }
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/admin/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/sweep: status %d want 405", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/admin/sweep", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var rep SweepReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Scored != 3 {
		t.Fatalf("POST /admin/sweep: status %d report %+v", resp.StatusCode, rep)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sweepSec, ok := stats["sweep"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing sweep section: %v", stats)
	}
	last, ok := sweepSec["last"].(map[string]any)
	if !ok || last["scored"].(float64) != 3 {
		t.Fatalf("sweep stats %v", sweepSec)
	}

	bare := NewAPI(pred, bnServer)
	bareSrv := httptest.NewServer(bare)
	defer bareSrv.Close()
	resp, err = http.Post(bareSrv.URL+"/admin/sweep", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unconfigured sweep: status %d want 503", resp.StatusCode)
	}
}
