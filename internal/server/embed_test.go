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
	"turbo/internal/graph"
	"turbo/internal/tensor"
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

// TestRebuildWarmsScoreCache pins what a boot depends on: the rebuild's
// sweep scores every built user, so with the table detached a
// total-feature-outage audit of each one is served from tier 3 with the
// rebuild's probability, and that probability is the full path's fresh
// gnn.Score bitwise.
func TestRebuildWarmsScoreCache(t *testing.T) {
	_, pred, eng := newEmbedStack(t)
	rep, _ := eng.LastRebuild()
	rebuilt := cachedScores(pred)
	if len(rebuilt) != rep.Rows {
		t.Fatalf("rebuild of %d rows left %d cached scores", rep.Rows, len(rebuilt))
	}
	pred.Embed = nil // audits take the ladder, not the table
	src := featureSource(pred)
	for u, want := range rebuilt {
		if p := auditDuringOutage(t, pred, src, u); p.ServedBy != TierCache || p.Probability != want {
			t.Fatalf("user %d outage audit: served by %q with %v, want %q with the rebuild's %v", u, p.ServedBy, p.Probability, TierCache, want)
		}
		// The rebuild fetched features as of its own start.
		p, err := pred.Predict(u, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if p.ServedBy != TierFull || p.Probability != want {
			t.Fatalf("user %d: rebuild %v, fresh gnn.Score %v (served by %q)", u, want, p.Probability, p.ServedBy)
		}
	}
}

// TestFullGraphScorersAgree checks the full-graph scorers against each
// other at serving size, where rows have dozens of neighbours: on the
// serving-shaped world at float64, every user's tier-3 score after
// RebuildOnce and after a sweep's RunOnce is bitwise the tape forward
// over NewBatch(FullSubgraph(…)), the edge-list reference.
func TestFullGraphScorersAgree(t *testing.T) {
	w := loadServingWorld(t)
	model, norm := w.servingModel(), w.fittedNormalizer(t)
	ctx := context.Background()
	t.Cleanup(func() {
		w.bn.Graph().SetDeltaObserver(nil)
		w.bn.SetPrePublish(nil)
	})
	rebuildPred := NewPredictionServer(w.bn, w.feats, model, norm, 0.5)
	if _, err := NewEmbedEngine(w.bn, rebuildPred).RebuildOnce(ctx); err != nil {
		t.Fatal(err)
	}
	sweepPred := NewPredictionServer(w.bn, w.feats, model, norm, 0.5)
	if _, err := NewSweepEngine(w.bn, sweepPred).RunOnce(ctx); err != nil {
		t.Fatal(err)
	}

	snap, filter := w.bn.Snapshot(), w.bn.TxnFilter()
	var users []behavior.UserID
	var nodes []graph.NodeID
	for _, id := range snap.Nodes() {
		if filter(id) {
			users, nodes = append(users, behavior.UserID(id)), append(nodes, id)
		}
	}
	sv := rebuildPred.Serving()
	vecs, errs := feature.FetchVectors(ctx, sv.Feats, users, time.Now(), sv.Norm)
	x := tensor.New(len(users), w.dim)
	for i, vec := range vecs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		copy(x.Row(i), vec)
	}
	want := gnn.TapeScores(model, gnn.NewBatch(graph.FullSubgraph(snap, graph.FullOptions{Nodes: nodes}), x))

	rebuilt, swept := cachedScores(rebuildPred), cachedScores(sweepPred)
	if len(users) < 900 || len(rebuilt) != len(users) || len(swept) != len(users) {
		t.Fatalf("%d users, %d rebuilt scores, %d swept scores", len(users), len(rebuilt), len(swept))
	}
	for i, u := range users {
		if rebuilt[u] != want[i] || swept[u] != want[i] {
			t.Fatalf("user %d: rebuild %v, sweep %v, tape over FullSubgraph %v", u, rebuilt[u], swept[u], want[i])
		}
	}
}

// BenchmarkRebuildOnce times one embedding-table rebuild on the
// serving-shaped world (W1k, HAG at the benchmark's widths behind a
// fitted normalizer): the cohort gather, the full-graph batch compile,
// the capturing forward, the star cut and the install. Run it with
// -cpu 1,2: the forward and the compile split across cores.
func BenchmarkRebuildOnce(b *testing.B) {
	w := loadServingWorld(b)
	b.Cleanup(func() {
		w.bn.Graph().SetDeltaObserver(nil)
		w.bn.SetPrePublish(nil)
	})
	eng := NewEmbedEngine(w.bn, NewPredictionServer(w.bn, w.feats, w.servingModel(), w.fittedNormalizer(b), 0.5))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RebuildOnce(ctx); err != nil {
			b.Fatal(err)
		}
	}
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
