package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/resilience"
	"turbo/internal/telemetry"
)

// scrapeMetrics renders the stack's registry in Prometheus text format.
func scrapeMetrics(t *testing.T, tel *Telemetry) string {
	t.Helper()
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricsEndpoint drives real traffic through the stack and asserts
// the /metrics exposition covers the acceptance catalog: tier counters,
// per-stage histograms, breaker state, and the BN pipeline series.
func TestMetricsEndpoint(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Traffic after telemetry is installed: audits, an ingest, a tick.
	for _, uid := range []string{"1", "2", "3"} {
		resp, err := http.Get(srv.URL + "/predict?uid=" + uid)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	bnServer.Ingest(mk(1, behavior.IPv4, "ip-x", 3*time.Hour))
	bnServer.Advance(t0.Add(5 * time.Hour))

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		`turbo_audit_outcomes_total{outcome="hag"} 3`,
		`turbo_audit_stage_seconds_bucket{stage="sample",le="+Inf"} 3`,
		`turbo_audit_stage_seconds_bucket{stage="feature",le="+Inf"} 3`,
		`turbo_audit_stage_seconds_bucket{stage="score",le="+Inf"} 3`,
		`turbo_audit_stage_seconds_bucket{stage="total",le="+Inf"} 3`,
		`turbo_audit_stage_seconds_count{stage="total"} 3`,
		"turbo_breaker_state 0",
		"turbo_bn_ingested_logs_total 1",
		"turbo_bn_snapshot_epoch 3",
		// 2 hourly epochs from the stack's seed Advance + 3 from ours;
		// the first mirrored tick reports the cumulative builder totals.
		"turbo_bn_window_jobs_total 5",
		"turbo_bn_nodes 3",
		"turbo_bn_snapshot_age_seconds",
		"turbo_bn_shard_skew",
		"turbo_feature_retries_total 0",
		"turbo_traces_slow_total 0",
		`turbo_faults_injected_total{kind="error"} 0`,
		// Model lifecycle: no gate decision or rollback yet, gauges at
		// their -1 sentinel.
		`turbo_model_gate_total{result="accepted"} 0`,
		`turbo_model_gate_total{result="rejected"} 0`,
		"turbo_model_gate_last_auc -1",
		"turbo_model_gate_last_psi -1",
		"turbo_model_gate_last_disagreement -1",
		"turbo_model_rollbacks_total 0",
		"# TYPE turbo_model_gate_total counter",
		"# TYPE turbo_model_gate_last_auc gauge",
		"# TYPE turbo_model_rollbacks_total counter",
		"# TYPE turbo_audit_stage_seconds histogram",
		"# TYPE turbo_audit_outcomes_total counter",
		"# TYPE turbo_breaker_state gauge",
		// Saturation observability: ingest/build lag, admission occupancy
		// and the HTTP in-flight counter (1 — the /metrics request itself
		// is in flight while the registry renders).
		"# TYPE turbo_ingest_lag_seconds gauge",
		"# TYPE turbo_bn_build_lag_seconds gauge",
		// Embedding tier: counters at zero (no engine installed on this
		// stack) and the default gauges at their sentinels — the series
		// must exist from boot so dashboards do not gap.
		`turbo_embedding_serve_total{result="hit"} 0`,
		`turbo_embedding_serve_total{result="dirty"} 0`,
		`turbo_embedding_serve_total{result="miss"} 0`,
		`turbo_embedding_serve_total{result="fallback"} 0`,
		"# TYPE turbo_embedding_serve_total counter",
		"turbo_embedding_age_seconds -1",
		"turbo_embedding_dirty_rows 0",
		"turbo_embedding_rows 0",
		"# TYPE turbo_embedding_age_seconds gauge",
		"# TYPE turbo_embedding_refresh_seconds histogram",
		"turbo_embedding_refreshed_rows_total 0",
		"turbo_admission_inflight 0",
		"turbo_admission_capacity -1",
		"turbo_admission_occupancy 0",
		"turbo_http_inflight_requests 1",
		// Scrape-time Go runtime collector.
		"# TYPE turbo_go_goroutines gauge",
		"turbo_go_heap_alloc_bytes",
		"turbo_go_heap_objects",
		"turbo_go_gc_cycles_total",
		"# TYPE turbo_go_gc_pause_seconds histogram",
		"turbo_go_sched_latency_p50_seconds",
		"turbo_go_sched_latency_p99_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestDebugTracesEndpoint asserts /debug/traces returns the last K
// traces newest-first with per-stage spans, bounds n, and rejects junk.
func TestDebugTracesEndpoint(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	srv := httptest.NewServer(api)
	defer srv.Close()

	for _, uid := range []string{"1", "2", "3"} {
		resp, err := http.Get(srv.URL + "/predict?uid=" + uid)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	get := func(q string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return resp, nil
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, out
	}

	_, out := get("?n=2")
	if out["returned"].(float64) != 2 {
		t.Fatalf("returned %v want 2", out["returned"])
	}
	traces := out["traces"].([]any)
	// Newest first: the last audit (uid=3) leads.
	first := traces[0].(map[string]any)
	if first["user"].(float64) != 3 {
		t.Fatalf("newest trace user %v want 3", first["user"])
	}
	if first["served_by"] != TierFull {
		t.Fatalf("served_by %v want %q", first["served_by"], TierFull)
	}
	if first["id"] == "" {
		t.Fatal("trace has no id")
	}
	spans := first["spans"].([]any)
	names := make([]string, len(spans))
	for i, s := range spans {
		sp := s.(map[string]any)
		names[i] = sp["name"].(string)
		if sp["outcome"] != "ok" {
			t.Fatalf("span %v outcome %v want ok", sp["name"], sp["outcome"])
		}
		if sp["duration_ns"].(float64) < 0 {
			t.Fatalf("span %v negative duration", sp["name"])
		}
	}
	if got := strings.Join(names, ","); got != "sample,feature,score" {
		t.Fatalf("span names %q want sample,feature,score", got)
	}

	// n larger than the ring is clamped, not an error.
	_, out = get("?n=1000000")
	if got := out["returned"].(float64); got != 3 {
		t.Fatalf("oversized n returned %v traces, want 3", got)
	}
	if out["ring_size"].(float64) < 1 {
		t.Fatalf("ring_size %v", out["ring_size"])
	}

	// Default n.
	_, out = get("")
	if got := out["returned"].(float64); got != 3 {
		t.Fatalf("default n returned %v traces, want 3", got)
	}

	// Junk n → 400.
	for _, q := range []string{"?n=0", "?n=-5", "?n=abc"} {
		resp, _ := get(q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /debug/traces%s: status %d want 400", q, resp.StatusCode)
		}
	}
}

// metricValue extracts a bare (unlabeled) sample value from a
// Prometheus exposition body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, body)
	return 0
}

// TestEventWatermarkAndLagGauges asserts the event-time watermark is a
// CAS-max over every ingest path and that the two lag gauges derive
// from it: ingest lag = wall clock − watermark, build lag = watermark −
// builder frontier, both clamped at 0.
func TestEventWatermarkAndLagGauges(t *testing.T) {
	bnServer, _ := newTestStack(t)

	// The seed batch's newest log is at t0+30m.
	if got, want := bnServer.EventWatermark(), t0.Add(30*time.Minute); !got.Equal(want) {
		t.Fatalf("watermark after seed batch %v, want %v", got, want)
	}
	// A newer ingest advances it; an older one must not regress it.
	bnServer.Ingest(mk(1, behavior.IPv4, "ip-a", 2*time.Hour))
	bnServer.Ingest(mk(2, behavior.IPv4, "ip-b", time.Hour))
	if got, want := bnServer.EventWatermark(), t0.Add(2*time.Hour); !got.Equal(want) {
		t.Fatalf("watermark %v, want %v (no regression on older events)", got, want)
	}

	body := scrapeMetrics(t, bnServer.Telemetry())
	// The test events are dated 2019, so ingest lag is years of seconds.
	if lag := metricValue(t, body, "turbo_ingest_lag_seconds"); lag < 1e6 {
		t.Fatalf("ingest lag %v s for 2019-dated events, want huge", lag)
	}
	wantBuild := bnServer.EventWatermark().Sub(bnServer.builder.ProcessedThrough()).Seconds()
	if wantBuild < 0 {
		wantBuild = 0
	}
	if got := metricValue(t, body, "turbo_bn_build_lag_seconds"); got != wantBuild {
		t.Fatalf("build lag %v, want watermark-frontier %v", got, wantBuild)
	}

	// Once the builder has advanced past the watermark, build lag clamps
	// to 0 (the frontier can lead the newest event).
	bnServer.Advance(t0.Add(100 * time.Hour))
	body = scrapeMetrics(t, bnServer.Telemetry())
	if got := metricValue(t, body, "turbo_bn_build_lag_seconds"); got != 0 {
		t.Fatalf("build lag %v after full catch-up, want 0", got)
	}
}

// TestDebugTracesSlowFilter exercises the slow_ms query parameter:
// filtering semantics, explicit JSON content type, and strict parsing.
func TestDebugTracesSlowFilter(t *testing.T) {
	bnServer, pred := newTestStack(t)
	api := NewAPI(pred, bnServer)
	srv := httptest.NewServer(api)
	defer srv.Close()

	for _, uid := range []string{"1", "2", "3"} {
		resp, err := http.Get(srv.URL + "/predict?uid=" + uid)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	get := func(q string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp, nil
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	// slow_ms=0 keeps everything, and the response is explicit JSON.
	resp, out := get("?slow_ms=0")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q, want application/json", ct)
	}
	if got := out["returned"].(float64); got != 3 {
		t.Fatalf("slow_ms=0 returned %v traces, want 3", got)
	}

	// A threshold far above any in-process audit filters them all out;
	// the ring size is still reported.
	_, out = get("?n=3&slow_ms=60000")
	if got := out["returned"].(float64); got != 0 {
		t.Fatalf("slow_ms=60000 returned %v traces, want 0", got)
	}
	if len(out["traces"].([]any)) != 0 {
		t.Fatalf("filtered response still carries traces: %v", out["traces"])
	}

	// Non-integer or negative slow_ms → 400, same contract as n.
	for _, q := range []string{"?slow_ms=-1", "?slow_ms=abc", "?slow_ms=1.5", "?slow_ms=10ms"} {
		resp, _ := get(q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /debug/traces%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestLatencyNumericFields asserts /latency carries raw nanosecond
// values alongside the formatted strings (the dashboard-friendly form).
func TestLatencyNumericFields(t *testing.T) {
	api := newTestAPI(t)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/predict?uid=1")
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
	d := out["total"]
	if d["count"].(float64) < 1 {
		t.Fatalf("empty total digest: %v", d)
	}
	for _, key := range []string{"mean_ns", "p50_ns", "p99_ns", "p999_ns"} {
		v, ok := d[key].(float64)
		if !ok {
			t.Fatalf("digest field %q not numeric: %v", key, d[key])
		}
		if v <= 0 {
			t.Fatalf("digest field %q = %v, want > 0 after one audit", key, v)
		}
	}
	// The string and numeric forms describe the same duration.
	want := time.Duration(int64(d["p50_ns"].(float64))).String()
	if d["p50"].(string) != want {
		t.Fatalf("p50 string %q != formatted p50_ns %q", d["p50"], want)
	}
}

// TestTraceRecordsDegradedAudit asserts the trace of a degraded audit
// carries the tier, breaker state and injected faults end to end.
func TestTraceRecordsDegradedAudit(t *testing.T) {
	cs := newChaosStack(t, resilience.FaultConfig{ErrorRate: 1, Seed: 8}, 2)
	for i := 0; i < 3; i++ {
		if _, err := cs.pred.Predict(1, t0.Add(3*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	last := cs.pred.Tel.Tracer.Ring().Last(3)
	if len(last) != 3 {
		t.Fatalf("ring holds %d traces want 3", len(last))
	}
	newest := last[0]
	if newest.ServedBy() == TierFull {
		t.Fatalf("outage audit served by %q", newest.ServedBy())
	}
	// At least one of the traces saw an injected error (the breaker opens
	// after 2 failures, so the first trace always does).
	sawFault := false
	for _, tr := range last {
		if tr.Faults()["error"] > 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatal("no trace recorded an injected fault")
	}
}

// TestOutcomeCountersBasics pins the audit outcome counters behind
// /stats served_by and turbo_audit_outcomes_total: a never-counted
// outcome has no entry, each audit adds one, an outcome off the cached
// list still counts, and ServedCounts returns a copy.
func TestOutcomeCountersBasics(t *testing.T) {
	tel := NewTelemetry(TelemetryOptions{})
	if c := tel.ServedCounts(); len(c) != 0 {
		t.Fatalf("fresh counters %v, want none", c)
	}
	tel.Outcome(TierFull)
	tel.Outcome(TierFull)
	tel.Outcome("degraded")
	tel.Outcome("custom")
	c := tel.ServedCounts()
	if len(c) != 3 || c[TierFull] != 2 || c["degraded"] != 1 || c["custom"] != 1 {
		t.Fatalf("counts %v, want hag=2 degraded=1 custom=1", c)
	}
	c[TierFull] = 99
	if got := tel.ServedCounts()[TierFull]; got != 2 {
		t.Fatalf("ServedCounts aliased the counters: hag=%d", got)
	}
	if body := scrapeMetrics(t, tel); !strings.Contains(body, `turbo_audit_outcomes_total{outcome="hag"} 2`) ||
		strings.Contains(body, `outcome="shed"`) {
		t.Fatalf("exposition disagrees with ServedCounts:\n%s", body)
	}
}

// TestOutcomeCountersConcurrent asserts outcome counts add up exactly
// under concurrent audits.
func TestOutcomeCountersConcurrent(t *testing.T) {
	tel := NewTelemetry(TelemetryOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tel.Outcome(TierFull)
			}
		}()
	}
	wg.Wait()
	if got := tel.ServedCounts()[TierFull]; got != 8000 {
		t.Fatalf("count %d want 8000", got)
	}
}

// latencyDigest is the numeric half of one GET /latency digest.
type latencyDigest struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
}

// latencyDigests fetches GET /latency.
func latencyDigests(t *testing.T, base string) map[string]latencyDigest {
	t.Helper()
	resp, err := http.Get(base + "/latency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]latencyDigest
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// timedAudits sends n audits of the known users over HTTP, timing each
// client-side into one histogram.
func timedAudits(t *testing.T, base string, n int) *telemetry.Histogram {
	t.Helper()
	client := telemetry.NewHistogram()
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := http.Get(fmt.Sprintf("%s/predict?uid=%d", base, 1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		client.Observe(time.Since(start))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("audit %d: status %d, %v", i, resp.StatusCode, err)
		}
	}
	return client
}

// TestLatencyWithinClientView times audits client-side into the same
// histogram type /latency reads and asserts the server's total p50, p99
// and p999 never exceed the client's. Each server duration lies inside
// its request's client duration and both sides share one slot layout,
// so the inequality is exact: no tolerance.
func TestLatencyWithinClientView(t *testing.T) {
	bnServer, pred := newTestStack(t)
	srv := httptest.NewServer(NewAPI(pred, bnServer))
	defer srv.Close()

	const n = 300
	client := timedAudits(t, srv.URL, n).Summarize()
	server := latencyDigests(t, srv.URL)["total"]
	if server.Count != n || client.Count != n {
		t.Fatalf("server saw %d audits, client %d, want %d", server.Count, client.Count, n)
	}
	for _, q := range []struct {
		name           string
		server, client int64
	}{
		{"p50", server.P50Ns, int64(client.P50)},
		{"p99", server.P99Ns, int64(client.P99)},
		{"p999", server.P999Ns, int64(client.P999)},
	} {
		if q.server > q.client {
			t.Errorf("server total %s %v exceeds the client's %v", q.name, time.Duration(q.server), time.Duration(q.client))
		}
	}
}

// TestStageMetricsMatchLatency asserts /metrics and /latency read one
// histogram per audit stage: each turbo_audit_stage_seconds cell's
// _count equals the /latency count, and its _sum equals count × mean up
// to the mean's integer-division remainder.
func TestStageMetricsMatchLatency(t *testing.T) {
	bnServer, pred := newTestStack(t)
	srv := httptest.NewServer(NewAPI(pred, bnServer))
	defer srv.Close()

	timedAudits(t, srv.URL, 20)
	digests := latencyDigests(t, srv.URL)
	body := scrapeMetrics(t, pred.Tel)
	for stage, name := range map[string]string{StageSample: "sampling", StageFeature: "features", StageScore: "predict", StageTotal: "total"} {
		d := digests[name]
		count := metricValue(t, body, `turbo_audit_stage_seconds_count{stage="`+stage+`"}`)
		sumNs := int64(math.Round(metricValue(t, body, `turbo_audit_stage_seconds_sum{stage="`+stage+`"}`) * 1e9))
		if int64(count) != d.Count || d.Count != 20 {
			t.Errorf("stage %s: _count %v, /latency %s count %d, want both 20", stage, count, name, d.Count)
		}
		if rem := sumNs - d.Count*d.MeanNs; rem < 0 || rem >= d.Count {
			t.Errorf("stage %s: _sum %dns vs count×mean %d×%dns (remainder %d)", stage, sumNs, d.Count, d.MeanNs, rem)
		}
	}
}

// TestFallbackMeasuresScoreOnce asserts the tier-2 fallback measures its
// score stage once: the trace's score span, the score histogram and
// PredictLatency all carry the same duration.
func TestFallbackMeasuresScoreOnce(t *testing.T) {
	_, pred := newTestStack(t)
	pred.SwapModel(nil, nil) // no model: every audit falls to tier 2
	pred.Fallback = constFallback(0.9)
	var total time.Duration
	for i := 0; i < 20; i++ {
		p, err := pred.Predict(1, t0.Add(3*time.Hour))
		if err != nil || p.ServedBy != TierFallback {
			t.Fatalf("audit served %+v, %v; want the fallback tier", p, err)
		}
		total += p.PredictLatency
		var span *telemetry.Span
		for _, s := range pred.Tel.Tracer.Ring().Last(1)[0].Spans() {
			if s.Name == StageScore {
				span = &s
			}
		}
		if span == nil || span.Duration != p.PredictLatency {
			t.Fatalf("audit %d: PredictLatency %v, trace score span %+v", i, p.PredictLatency, span)
		}
	}
	if sum := pred.Tel.stageScore.Sum(); sum != total {
		t.Fatalf("score histogram sum %v, want the PredictLatency sum %v", sum, total)
	}
}
