package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
	"turbo/internal/graph"
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
	if rep.Edges == 0 {
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
// no feature profile. The sweep, the embed rebuild and the lifecycle
// cohort must each see the same candidates and skip (and count) that
// same user, not abort; the cohort scores the live model bit for bit as
// the sweep remembered.
func TestSweepEngineSkipsMissingProfiles(t *testing.T) {
	bnServer, pred := newTestStack(t)
	bnServer.RegisterTransaction(9) // no profile stored
	bnServer.Advance(t0.Add(3 * time.Hour))
	ctx := context.Background()
	eng := NewSweepEngine(bnServer, pred)
	rep, err := eng.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 4 || rep.Scored != 3 || rep.Skipped != 1 {
		t.Fatalf("report %+v", rep)
	}
	swept := cachedScores(pred)
	if _, ok := swept[9]; ok || len(swept) != 3 {
		t.Fatalf("sweep cached %v, want users 1-3 only", swept)
	}

	cohort, err := eng.CohortScores(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohort) != 3 {
		t.Fatalf("cohort scored %d users, want 3", len(cohort))
	}
	for i, u := range []behavior.UserID{1, 2, 3} {
		if math.Float64bits(cohort[i]) != math.Float64bits(swept[u]) {
			t.Fatalf("user %d: cohort %v, sweep remembered %v", u, cohort[i], swept[u])
		}
	}

	emb := NewEmbedEngine(bnServer, pred)
	rb, err := emb.RebuildOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Candidates != 4 || rb.Rows != 3 || rb.Skipped != 1 || !rb.Servable {
		t.Fatalf("rebuild report %+v", rb)
	}
	tab := emb.Store().Table()
	for u := graph.NodeID(1); u <= 3; u++ {
		if tab.Row(u) < 0 {
			t.Fatalf("rebuild table has no row for user %d", u)
		}
	}
	if tab.Row(9) >= 0 {
		t.Fatal("rebuild table has a row for the user without a profile")
	}
}

// TestFullGraphPassesUnderConcurrentWrites runs the sweep, the embed
// rebuild and the lifecycle cohort beside transaction registration,
// Advance and report reads, which share the cohort's eligible-user walk
// and the stored reports with them (meant for -race). Once the writers
// stop, the sweep and the rebuild see the same candidates and skips.
func TestFullGraphPassesUnderConcurrentWrites(t *testing.T) {
	bnServer, pred := newTestStack(t)
	sweeper := NewSweepEngine(bnServer, pred)
	emb := NewEmbedEngine(bnServer, pred)
	ctx := context.Background()
	passes := []func() error{
		func() error { _, err := sweeper.RunOnce(ctx); return err },
		func() error { _, err := emb.RebuildOnce(ctx); return err },
		func() error { _, err := sweeper.CohortScores(ctx, 2); return err },
	}
	var wg sync.WaitGroup
	for _, pass := range passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := pass(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for u := behavior.UserID(10); u < 30; u++ {
		bnServer.RegisterTransaction(u) // no profile stored
		bnServer.Advance(t0.Add(3*time.Hour + time.Duration(u)*time.Minute))
		sweeper.LastReport()
		emb.StatsSnapshot()
	}
	wg.Wait()

	rep, err := sweeper.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := emb.RebuildOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 23 || rep.Skipped != 20 || rb.Candidates != 23 || rb.Skipped != 20 || rb.Rows != 3 {
		t.Fatalf("sweep %+v, rebuild %+v: want 23 candidates, 20 skipped", rep, rb)
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
