package feature

import (
	"context"
	"errors"
	"testing"
	"time"

	"turbo/internal/behavior"
)

var t0 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

func mk(u behavior.UserID, typ behavior.Type, val string, offset time.Duration) behavior.Log {
	return behavior.Log{User: u, Type: typ, Value: val, Time: t0.Add(offset)}
}

func newSvc(cfg Config, logs []behavior.Log) *Service {
	store := behavior.NewStore()
	store.AppendBatch(logs)
	return NewService(cfg, store)
}

func TestStatFeatureNamesAndDims(t *testing.T) {
	names := StatFeatureNames()
	if len(names) != NumStatFeatures() {
		t.Fatalf("names %d vs dims %d", len(names), NumStatFeatures())
	}
	if NumStatFeatures() != len(StatWindows)*4 {
		t.Fatalf("unexpected stat dims %d", NumStatFeatures())
	}
}

func TestStatFeaturesCountWindows(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.DeviceID, "d1", 100*time.Hour-30*time.Minute), // within 1h of cutoff
		mk(1, behavior.DeviceID, "d2", 100*time.Hour-10*time.Hour),   // within 24h
		mk(1, behavior.IPv4, "ip1", 100*time.Hour-50*time.Hour),      // within 72h
		mk(1, behavior.GPS100, "c1", 100*time.Hour-30*time.Minute),
		mk(1, behavior.GPS100, "c1", 100*time.Hour-40*time.Minute), // same cell twice
		mk(2, behavior.DeviceID, "other", 100*time.Hour-time.Minute),
	}
	svc := newSvc(Config{}, logs)
	cutoff := t0.Add(100 * time.Hour)
	stats := svc.StatFeatures(1, cutoff)
	// Window layout: per window [logs, devices, ips, cells].
	// 1h window: 3 logs (d1, c1 ×2), 1 device, 0 ips, 1 cell.
	if stats[0] != 3 || stats[1] != 1 || stats[2] != 0 || stats[3] != 1 {
		t.Fatalf("1h stats %v", stats[:4])
	}
	// 24h window adds d2: 4 logs, 2 devices.
	if stats[4] != 4 || stats[5] != 2 {
		t.Fatalf("24h stats %v", stats[4:8])
	}
	// 72h window adds ip1: 5 logs, 1 ip.
	if stats[8] != 5 || stats[10] != 1 {
		t.Fatalf("72h stats %v", stats[8:12])
	}
}

func TestStatFeaturesExcludeAfterCutoff(t *testing.T) {
	logs := []behavior.Log{
		mk(1, behavior.DeviceID, "d", 10*time.Hour),
	}
	svc := newSvc(Config{}, logs)
	stats := svc.StatFeatures(1, t0.Add(5*time.Hour)) // cutoff before the log
	for i, v := range stats {
		if v != 0 {
			t.Fatalf("future log leaked into stats[%d]=%v", i, v)
		}
	}
}

func TestProfileRoundtrip(t *testing.T) {
	svc := newSvc(Config{}, nil)
	if err := svc.PutProfile(7, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Profile(7)
	if err != nil || len(got) != 3 || got[1] != 2 {
		t.Fatalf("profile %v %v", got, err)
	}
	if _, err := svc.Profile(99); err == nil {
		t.Fatal("missing profile should error")
	}
}

func TestVectorComposition(t *testing.T) {
	logs := []behavior.Log{mk(1, behavior.DeviceID, "d", 99*time.Hour+30*time.Minute)}
	svc := newSvc(Config{}, logs)
	if err := svc.PutProfile(1, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	vec, err := svc.Vector(1, t0.Add(100*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 2+NumStatFeatures() {
		t.Fatalf("vector dims %d", len(vec))
	}
	if vec[0] != 10 || vec[1] != 20 {
		t.Fatalf("static prefix %v", vec[:2])
	}
	if vec[2] != 1 { // one log in the 1h window
		t.Fatalf("stat suffix %v", vec[2:])
	}
}

func TestVectorCacheHit(t *testing.T) {
	svc := newSvc(Config{}, nil)
	_ = svc.PutProfile(1, []float64{1})
	if _, err := svc.Vector(1, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Vector(1, t0); err != nil {
		t.Fatal(err)
	}
	hits, misses := svc.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d", hits, misses)
	}
}

func TestVectorDisableCache(t *testing.T) {
	svc := newSvc(Config{DisableCache: true}, nil)
	_ = svc.PutProfile(1, []float64{1})
	_, _ = svc.Vector(1, t0)
	_, _ = svc.Vector(1, t0)
	hits, _ := svc.CacheStats()
	if hits != 0 {
		t.Fatalf("cold path should never hit the cache: %d", hits)
	}
}

func TestPutProfileInvalidatesCachedVector(t *testing.T) {
	svc := newSvc(Config{}, nil)
	_ = svc.PutProfile(1, []float64{1})
	v1, _ := svc.Vector(1, t0)
	_ = svc.PutProfile(1, []float64{42})
	v2, _ := svc.Vector(1, t0)
	if v1[0] == v2[0] {
		t.Fatal("stale cached vector served after profile update")
	}
}

func TestInvalidateUser(t *testing.T) {
	logs := []behavior.Log{}
	store := behavior.NewStore()
	store.AppendBatch(logs)
	svc := NewService(Config{}, store)
	_ = svc.PutProfile(1, []float64{1})
	v1, _ := svc.Vector(1, t0.Add(2*time.Hour))
	// New behavior arrives; without invalidation the vector is stale.
	store.Append(mk(1, behavior.DeviceID, "d", time.Hour+30*time.Minute))
	svc.InvalidateUser(1)
	v2, _ := svc.Vector(1, t0.Add(2*time.Hour))
	if v1[1] == v2[1] {
		t.Fatal("invalidation did not refresh statistical features")
	}
}

func TestVectorSurvivesPrimaryFailover(t *testing.T) {
	svc := newSvc(Config{DisableCache: true}, nil)
	_ = svc.PutProfile(1, []float64{5})
	svc.Profiles().Primary().SetDown(true)
	vec, err := svc.Vector(1, t0)
	if err != nil || vec[0] != 5 {
		t.Fatalf("failover vector: %v %v", vec, err)
	}
}

func TestVectorMissingProfileErrors(t *testing.T) {
	svc := newSvc(Config{}, nil)
	if _, err := svc.Vector(123, t0); err == nil {
		t.Fatal("expected error for missing profile")
	}
}

func TestDBLatencySimulation(t *testing.T) {
	svc := newSvc(Config{DisableCache: true, DBLatency: 5 * time.Millisecond}, nil)
	_ = svc.PutProfile(1, []float64{1})
	start := time.Now()
	_, _ = svc.Vector(1, t0)
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("DBLatency not applied on cold path")
	}
}

func TestVectorCtxCancellation(t *testing.T) {
	svc := newSvc(Config{DisableCache: true}, []behavior.Log{mk(1, behavior.DeviceID, "d", time.Minute)})
	if err := svc.PutProfile(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}

	// Already-canceled context fails before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.VectorCtx(ctx, 1, t0.Add(time.Hour)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// A deadline cuts the simulated DB round-trip short.
	slow := newSvc(Config{DisableCache: true, DBLatency: 5 * time.Second}, nil)
	if err := slow.PutProfile(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	start := time.Now()
	_, err := slow.VectorCtx(dctx, 1, t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("DB latency was not cut short by the deadline")
	}

	// Background context behaves exactly like Vector.
	v1, err := svc.VectorCtx(context.Background(), 1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := svc.Vector(1, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != len(v2) {
		t.Fatalf("ctx and plain paths disagree: %v vs %v", v1, v2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("ctx and plain paths disagree at %d: %v vs %v", i, v1, v2)
		}
	}
}
