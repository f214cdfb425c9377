package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/loadgen"
)

func ops(seed uint64, zipf bool, n int) []op {
	skew := 0.0
	if zipf {
		skew = 0.99
	}
	t := newTraffic(seed, 500, 0.5, skew)
	t.partners = make([][]behavior.UserID, 500)
	for u := range t.partners {
		t.partners[u] = []behavior.UserID{behavior.UserID(u+1) % 500, behavior.UserID(u+7) % 500}
	}
	out := make([]op, n)
	for i := range out {
		out[i] = t.op(uint64(i))
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		a, b, c := ops(7, zipf, 2000), ops(7, zipf, 2000), ops(8, zipf, 2000)
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("zipf=%v: op %d differs between two draws of seed 7: %v vs %v", zipf, i, a[i], b[i])
			}
			if a[i] == c[i] {
				same++
			}
		}
		if same > len(a)/10 {
			t.Errorf("zipf=%v: seeds 7 and 8 share %d of %d ops", zipf, same, len(a))
		}
	}
	// The skew must be real: rank 0 is drawn far more often than uniform.
	hot := 0
	for _, o := range ops(1, true, 4000) {
		if o.value == "" && o.uid == 0 {
			hot++
		}
	}
	if hot < 100 {
		t.Errorf("zipf 0.99 drew the hottest uid %d times in ~2000 audits, want ≫ 4", hot)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestBetterHalfRate(t *testing.T) {
	t0 := time.Unix(100, 0)
	var at []time.Time
	for w, n := range []int{10, 2, 14, 12, 9} { // events per 1 s window; the trailing half window is cut
		for i := 0; i < n; i++ {
			at = append(at, t0.Add(time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	if got := betterHalfRate(at, t0, 4500*time.Millisecond, time.Second); got != 13 {
		t.Errorf("windows of 10, 2, 14 and 12 events: rate %g, want the 13 of the better two", got)
	}
	if got := betterHalfRate(at[:26], t0, 3*time.Second, time.Second); got != 12 {
		t.Errorf("windows of 10, 2 and 14 events: rate %g, want the 12 of the better two", got)
	}
	if got := betterHalfRate(at[:10], t0, 500*time.Millisecond, time.Second); got != 20 {
		t.Errorf("a phase shorter than the window is one window: rate %g, want 20", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	by := selfByName(spans)
	if by["root"][0] != 0.04 {
		t.Errorf("root self time = %g µs, want 0.04", by["root"][0])
	}
}

// A stalled target must cost every op scheduled during the stall its
// queueing delay: latency runs from the intended send time, not from
// when a connection became free.
func TestStallAccruesQueueingDelayFromIntendedSendTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/predict" && calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
		_, _ = w.Write([]byte(`{"probability":0.5,"served_by":"hag"}`))
	}))
	defer srv.Close()
	rec := &recorder{inner: loadgen.NewHTTPTarget(srv.URL, 1)}
	src := &opSource{t: newTraffic(1, 10, 1, 0)}
	stats := rec.begin(0)
	if _, err := openLoop(context.Background(), rec, src, 100, 500*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	rec.end()
	if stats.sent != 50 || stats.failed != 0 {
		t.Fatalf("sent %d failed %d, want 50 and 0", stats.sent, stats.failed)
	}
	// Ops due at 10, 20, … 290 ms all waited for the one connection.
	delayed := 0
	for _, l := range stats.auditMs {
		if l > 50 {
			delayed++
		}
	}
	if delayed < 20 {
		t.Errorf("%d ops show the stall, want the ≥20 scheduled during its first 250 ms; latencies %v", delayed, stats.auditMs)
	}
	if got := percentile(stats.lateMs, 90); got < 50 {
		t.Errorf("late_ms p90 = %g, want the generator's ops reported late during the stall", got)
	}
	if stats.withinSLO >= stats.sent {
		t.Errorf("every op within the %v limit despite a 300 ms stall", sloLimit)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// The smoke pass runs all four workloads, traced, on the 300-user world
// with one-second phases and checks that what a run prints is exactly
// what BENCHMARK.json declares, and that the workloads separate the
// layers the way the README says.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metricValue) {
		t.Helper()
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, a run prints %d", kind, len(declared), len(printed))
		}
		for _, d := range declared {
			if m, ok := printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, printed %v (unit %q)", kind, d.Name, d.Unit, ok, m.Unit)
			}
		}
	}

	tr := train(1, smokeSpec.trainEpochs)
	layer := make(map[string]map[string]float64)
	for _, wl := range decl.Workloads {
		t0 := time.Now()
		res, err := run(runConfig{workload: wl.Name, seed: 1, seconds: 1, trace: true, spec: smokeSpec, tr: tr})
		t.Logf("%s took %v", wl.Name, time.Since(t0))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", wl.Name, res.failed, res.attempted, res.notes)
		}
		same(wl.Name+" end_to_end", decl.EndToEnd, res.output(false).Metrics)
		same(wl.Name+" per_layer", decl.PerLayer, res.output(true).Metrics)
		for name, m := range res.output(false).Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
			}
		}
		layer[wl.Name] = res.layer
	}

	if r := layer["audit-full"]["embed.hit_ratio"]; r != 0 {
		t.Errorf("audit-full embed.hit_ratio = %g, want 0", r)
	}
	if r := layer["audit-embed"]["embed.hit_ratio"]; r < 0.99 {
		t.Errorf("audit-embed embed.hit_ratio = %g, want ≥ 0.99", r)
	}
	if n := layer["audit-embed"]["server.served_by.hag"]; n != 0 {
		t.Errorf("audit-embed served %g audits on the full path, want 0", n)
	}
	for _, wl := range []string{"audit-full", "audit-embed", "churn"} {
		L := layer[wl]
		if d := math.Abs(L["server.attributed_us"] + L["server.unattributed_us"] - L["server.predict_us_mean"]); d > 1e-6 {
			t.Errorf("%s: attributed %g + unattributed %g ≠ predict mean %g", wl, L["server.attributed_us"], L["server.unattributed_us"], L["server.predict_us_mean"])
		}
		if L["trace.ops"] < 50 || L["graph.sample_us_p50"] <= 0 || L["hag.score_f64_us"] <= 0 {
			t.Errorf("%s: the shadow pipeline measured nothing: %v ops", wl, L["trace.ops"])
		}
	}
	if layer["replay"]["embed.rebuild_ms"] <= 0 || layer["replay"]["graph.sample_us_p50"] != 0 {
		t.Errorf("replay must rebuild and must not sample: %v", layer["replay"])
	}
}
