package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/feature"
	"turbo/internal/gnn"
)

// newEmbedStack is newTestStack with the lambda tier enabled and a
// fresh table built.
func newEmbedStack(t *testing.T) (*BNServer, *PredictionServer, *EmbedEngine) {
	t.Helper()
	bnServer, pred := newTestStack(t)
	eng := NewEmbedEngine(bnServer, pred)
	rep, err := eng.RebuildOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Servable || rep.Rows == 0 {
		t.Fatalf("rebuild not servable: %+v", rep)
	}
	return bnServer, pred, eng
}

// TestEmbedTierServesAndInvalidates walks the tier through its
// lifecycle on the real prediction path: clean audits serve from cached
// embeddings above the ladder, an edge delta published by Advance
// (mark-before-publish) demotes the affected neighborhoods to the full
// path, untouched users keep embed-serving, and one incremental refresh
// restores the tier.
func TestEmbedTierServesAndInvalidates(t *testing.T) {
	bnServer, pred, eng := newEmbedStack(t)
	at := t0.Add(3 * time.Hour)

	p, err := pred.PredictCtx(context.Background(), 1, at)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierEmbed {
		t.Fatalf("clean audit served by %q, want %q", p.ServedBy, TierEmbed)
	}
	if p.Degraded || p.Probability < 0 || p.Probability > 1 {
		t.Fatalf("embed prediction %+v", p)
	}

	// Users 1 and 2 share a new asset; the next Advance builds the edge
	// and must mark both neighborhoods before the snapshot publishes.
	bnServer.Ingest(mk(1, behavior.WiFiMAC, "home", 2*time.Hour+30*time.Minute))
	bnServer.Ingest(mk(2, behavior.WiFiMAC, "home", 2*time.Hour+40*time.Minute))
	bnServer.Advance(t0.Add(4 * time.Hour))
	if eng.Store().Table().DirtyCount() == 0 {
		t.Fatal("published edge deltas did not mark the table dirty")
	}

	p, err = pred.PredictCtx(context.Background(), 1, at)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy == TierEmbed {
		t.Fatalf("dirty neighborhood served from cached embeddings (%+v)", p)
	}
	// User 3 is outside the delta's ball and keeps embed-serving.
	p, err = pred.PredictCtx(context.Background(), 3, at)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierEmbed {
		t.Fatalf("unaffected user served by %q, want %q", p.ServedBy, TierEmbed)
	}

	rep := eng.RefreshOnce()
	if rep.Cleared == 0 || rep.Ball < rep.Dirty {
		t.Fatalf("refresh did not repair the dirty set: %+v", rep)
	}
	p, err = pred.PredictCtx(context.Background(), 1, at)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServedBy != TierEmbed {
		t.Fatalf("refreshed audit served by %q, want %q", p.ServedBy, TierEmbed)
	}
}

// TestRememberScoresVersionTagging pins the tier-3 cache contract: a
// batch tagged with a stale artifact version is dropped, a model swap
// clears the cache and retires the old tag, and pinning the new version
// re-opens it.
func TestRememberScoresVersionTagging(t *testing.T) {
	_, pred := newTestStack(t)
	cacheLen := func() int { return len(cachedScores(pred)) }

	pred.SetModelVersion(7)
	pred.RememberScoresFor([]behavior.UserID{1, 2}, []float64{0.4, 0.6}, 7)
	if cacheLen() != 2 {
		t.Fatalf("cache %d entries after matching-version install, want 2", cacheLen())
	}
	// A batch computed under an older artifact must not land.
	pred.RememberScoresFor([]behavior.UserID{3}, []float64{0.9}, 3)
	if cacheLen() != 2 {
		t.Fatalf("stale-version batch installed (%d entries)", cacheLen())
	}

	// Swap: cache emptied, tag 7 retired even before the manager pins
	// the new artifact version.
	dim := 2 + feature.NumStatFeatures()
	pred.SwapModel(gnn.NewGraphSAGE(gnn.Config{InDim: dim, Hidden: []int{4}, MLPHidden: 2, Seed: 2}), nil)
	if cacheLen() != 0 {
		t.Fatalf("cache survived the swap (%d entries)", cacheLen())
	}
	pred.RememberScoresFor([]behavior.UserID{1}, []float64{0.5}, 7)
	if cacheLen() != 0 {
		t.Fatal("batch tagged with the pre-swap version installed after the swap")
	}

	// Rollback shape: restoring artifact 7 re-opens version-7 batches
	// (their scores were computed under exactly that artifact).
	pred.SetModelVersion(7)
	pred.RememberScoresFor([]behavior.UserID{1}, []float64{0.5}, 7)
	if cacheLen() != 1 {
		t.Fatalf("cache %d entries after rollback re-pin, want 1", cacheLen())
	}
}

// TestEmbedAdminAndStats covers the HTTP surface: /stats grows an embed
// section and POST /admin/embed/refresh runs an incremental refresh.
func TestEmbedAdminAndStats(t *testing.T) {
	bnServer, pred, eng := newEmbedStack(t)
	api := NewAPI(pred, bnServer)
	api.Embed = eng
	api.Admin.EmbedRefresh = func(ctx context.Context) (EmbedRefreshReport, error) {
		return eng.RefreshOnce(), nil
	}
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sec, ok := stats["embed"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing embed section: %v", stats)
	}
	if rows, _ := sec["rows"].(float64); rows != 3 {
		t.Fatalf("embed stats rows %v, want 3 (%v)", sec["rows"], sec)
	}

	resp, err = http.Post(srv.URL+"/admin/embed/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/embed/refresh status %d", resp.StatusCode)
	}
	var ref map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := ref["cleared"]; !ok {
		t.Fatalf("refresh report missing cleared: %v", ref)
	}

	// Method gate: GET is refused.
	resp, err = http.Get(srv.URL + "/admin/embed/refresh")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/embed/refresh status %d, want 405", resp.StatusCode)
	}
}
