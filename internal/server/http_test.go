package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"turbo/internal/persist"
	"turbo/internal/resilience"
)

func newTestAPI(t *testing.T) *API {
	t.Helper()
	bnServer, pred := newTestStack(t)
	return NewAPI(pred, bnServer)
}

func TestHTTPPredict(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/predict?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pred Prediction
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if pred.User != 1 || pred.Probability < 0 || pred.Probability > 1 {
		t.Fatalf("prediction %+v", pred)
	}
}

func TestHTTPPredictBadUID(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()
	for _, q := range []string{"/predict", "/predict?uid=abc", "/predict?uid=-1"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d want 400", q, resp.StatusCode)
		}
	}
}

func TestHTTPIngestAndStats(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	body := `{"uid":42,"type":0,"value":"new-dev","time":"2019-01-01T05:00:00Z"}`
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["logs"].(float64) != 4 { // 3 seeded + 1 ingested
		t.Fatalf("stats %v", stats)
	}
}

func TestHTTPIngestRejectsInvalid(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	for _, body := range []string{
		`{bad json`,
		`{"uid":1,"type":99,"value":"x"}`, // invalid behavior type
	} {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d want 400", body, resp.StatusCode)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest status %d", resp.StatusCode)
	}
}

func TestHTTPIngestDefaultsTime(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	srv := httptest.NewServer(api)
	defer srv.Close()

	before := time.Now()
	body := `{"uid":7,"type":3,"value":"ip"}`
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	logs := bnServer.Store().UserLogs(7)
	if len(logs) != 1 || logs[0].Time.Before(before.Add(-time.Second)) {
		t.Fatalf("zero time not defaulted: %+v", logs)
	}
}

func TestHTTPTransaction(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/transaction?uid=77", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !slices.Contains(bnServer.Graph().Nodes(), 77) {
		t.Fatal("transaction did not register the node")
	}
	// Method check.
	resp, _ = http.Get(srv.URL + "/transaction?uid=78")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET transaction status %d", resp.StatusCode)
	}
}

func TestHTTPLatencyDigest(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Generate one prediction so digests are non-empty.
	resp, err := http.Get(srv.URL + "/predict?uid=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/latency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sampling", "features", "predict", "total"} {
		if out[key]["count"].(float64) < 1 {
			t.Fatalf("digest %q empty: %v", key, out[key])
		}
	}
}

func TestHTTPSubgraphDOT(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/subgraph?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/vnd.graphviz" {
		t.Fatalf("content type %q", ct)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	out := string(body[:n])
	if !strings.Contains(out, "graph") || !strings.Contains(out, "n0") {
		t.Fatalf("not DOT output: %q", out)
	}
	// Bad uid.
	resp2, _ := http.Get(srv.URL + "/subgraph?uid=zzz")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad uid status %d", resp2.StatusCode)
	}
	// A user the server has never seen is 404, as on /predict.
	resp3, err := http.Get(srv.URL + "/subgraph?uid=999")
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound || strings.TrimSpace(string(body3)) != "unknown user 999" {
		t.Fatalf("unknown uid: status %d, body %q", resp3.StatusCode, body3)
	}
}

func TestHTTPMethodEnforcement(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	for _, path := range []string{"/predict?uid=1", "/latency", "/stats", "/subgraph?uid=1", "/metrics", "/debug/traces", "/healthz", "/readyz"} {
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("POST %s: Allow header %q want GET", path, allow)
		}
	}
}

func TestHTTPPredictUnknownUser404(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/predict?uid=999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d want 404", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if got := strings.TrimSpace(string(body)); got != "unknown user 999" {
		t.Fatalf("404 body %q leaks internals", got)
	}
}

func TestHTTPPredictDuringFeatureOutage(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{ErrorRate: 1, Seed: 4}, 3)
	api := NewAPI(cs.pred, cs.bn)
	srv := httptest.NewServer(api)
	defer srv.Close()

	for i := 0; i < 5; i++ {
		resp, err := http.Get(srv.URL + "/predict?uid=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("request %d: status %d want 200 during feature outage", i, resp.StatusCode)
		}
		var pred Prediction
		if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !pred.Degraded {
			t.Fatalf("request %d: not degraded: %+v", i, pred)
		}
		switch pred.ServedBy {
		case TierFallback, TierCache, TierPrior:
		default:
			t.Fatalf("request %d: served_by %q", i, pred.ServedBy)
		}
	}
}

func TestHTTPPredictOverloaded429(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{Delay: 300 * time.Millisecond, Seed: 6}, 100)
	cs.pred.Admission = resilience.NewAdmission(1)
	api := NewAPI(cs.pred, cs.bn)
	srv := httptest.NewServer(api)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/predict?uid=1")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for cs.pred.Admission.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never entered")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/predict?uid=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429", resp.StatusCode)
	}
	<-done
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp.StatusCode)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready["ready"] != true || ready["model_loaded"] != true {
		t.Fatalf("readiness %v", ready)
	}
	if ready["breaker"] != "closed" {
		t.Fatalf("breaker state %v want closed", ready["breaker"])
	}
	if _, ok := ready["snapshot_epoch"]; !ok {
		t.Fatal("readiness missing snapshot_epoch")
	}
}

func TestHTTPStatsServesSnapshotNotLiveGraph(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	srv := httptest.NewServer(api)
	defer srv.Close()

	readNodes := func() float64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats["nodes"].(float64)
	}

	before := readNodes()
	// Registering a transaction adds a node to the live graph only; the
	// snapshot (and therefore /stats) must not change until Advance
	// republishes it.
	resp, err := http.Post(srv.URL+"/transaction?uid=50", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := readNodes(); got != before {
		t.Fatalf("stats read the live graph: %v nodes before Advance, want %v", got, before)
	}
	bnServer.Advance(t0.Add(3 * time.Hour))
	if got := readNodes(); got != before+1 {
		t.Fatalf("stats after Advance: %v nodes want %v", got, before+1)
	}
}

func TestHTTPAdminEndpointsMethodAndReadiness(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	paths := []string{"/admin/checkpoint", "/admin/retrain", "/admin/sweep", "/admin/embed/refresh"}
	for _, path := range paths {
		// Wrong method: 405 with an Allow header.
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "POST" {
			t.Fatalf("GET %s: Allow %q want POST", path, allow)
		}
		// No hook configured: 503.
		resp, err = http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s unconfigured: status %d want 503", path, resp.StatusCode)
		}
	}

	// Not ready (recovering): 503 even with hooks installed.
	api.Admin.Checkpoint = func() (persist.CheckpointInfo, error) {
		return persist.CheckpointInfo{LSN: 7, Bytes: 128, TruncatedSegments: 1}, nil
	}
	api.Admin.Retrain = func(ctx context.Context) (RetrainReport, error) {
		return RetrainReport{Accepted: true}, nil
	}
	api.Admin.Sweep = func(ctx context.Context) (SweepReport, error) {
		return SweepReport{Scored: 3}, nil
	}
	api.Admin.EmbedRefresh = func(ctx context.Context) (EmbedRefreshReport, error) {
		return EmbedRefreshReport{Cleared: 2}, nil
	}
	api.SetReady(false)
	for _, path := range paths {
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s while recovering: status %d want 503", path, resp.StatusCode)
		}
	}
	// /readyz mirrors the gate.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while recovering: status %d want 503", resp.StatusCode)
	}

	api.SetReady(true)
	resp, err = http.Post(srv.URL+"/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ck["wal_lsn"] != float64(7) {
		t.Fatalf("checkpoint response %d %+v", resp.StatusCode, ck)
	}
	resp, err = http.Post(srv.URL+"/admin/retrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rt map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rt["accepted"] != true {
		t.Fatalf("retrain response %d %+v", resp.StatusCode, rt)
	}
	for path, want := range map[string][2]any{
		"/admin/sweep":         {"scored", float64(3)},
		"/admin/embed/refresh": {"cleared", float64(2)},
	} {
		resp, err = http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rep map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rep[want[0].(string)] != want[1] {
			t.Fatalf("%s response %d %+v", path, resp.StatusCode, rep)
		}
	}
}

func TestHTTPAdminErrorsAreMasked(t *testing.T) {
	api := newTestAPI(t)
	secret := errors.New("disk full: /secret/path")
	api.Admin.Checkpoint = func() (persist.CheckpointInfo, error) {
		return persist.CheckpointInfo{}, secret
	}
	api.Admin.Retrain = func(ctx context.Context) (RetrainReport, error) {
		return RetrainReport{}, secret
	}
	api.Admin.Sweep = func(ctx context.Context) (SweepReport, error) {
		return SweepReport{}, secret
	}
	api.Admin.EmbedRefresh = func(ctx context.Context) (EmbedRefreshReport, error) {
		return EmbedRefreshReport{}, secret
	}
	srv := httptest.NewServer(api)
	defer srv.Close()
	for _, path := range []string{"/admin/checkpoint", "/admin/retrain", "/admin/sweep", "/admin/embed/refresh"} {
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("POST %s: status %d want 500", path, resp.StatusCode)
		}
		if strings.Contains(string(body), "secret") {
			t.Fatalf("POST %s: internal error leaked to client: %q", path, body)
		}
	}
}
