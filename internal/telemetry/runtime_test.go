package telemetry

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// famValue extracts the sample value of a bare (unlabeled) family from
// an exposition body, failing the test when absent.
func famValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample for %q:\n%s", name, body)
	return 0
}

// TestRuntimeCollector asserts the scrape-time Go runtime collector
// publishes live goroutine/heap figures and drains GC pauses completed
// between scrapes into the pause histogram.
func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)

	runtime.GC()
	runtime.GC()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()

	if g := famValue(t, body, "turbo_go_goroutines"); g < 1 {
		t.Errorf("goroutines %v, want ≥ 1", g)
	}
	if h := famValue(t, body, "turbo_go_heap_alloc_bytes"); h <= 0 {
		t.Errorf("heap alloc %v, want > 0", h)
	}
	if h := famValue(t, body, "turbo_go_heap_sys_bytes"); h <= 0 {
		t.Errorf("heap sys %v, want > 0", h)
	}
	if c := famValue(t, body, "turbo_go_gc_cycles_total"); c < 2 {
		t.Errorf("gc cycles %v, want ≥ 2 after two forced GCs", c)
	}
	if n := famValue(t, body, "turbo_go_gc_pause_seconds_count"); n < 2 {
		t.Errorf("gc pause count %v, want ≥ 2", n)
	}
	for _, typ := range []string{
		"# TYPE turbo_go_goroutines gauge",
		"# TYPE turbo_go_gc_pause_seconds histogram",
		"# TYPE turbo_go_gc_cycles_total counter",
		"# TYPE turbo_go_sched_latency_p50_seconds gauge",
	} {
		if !strings.Contains(body, typ) {
			t.Errorf("exposition missing %q", typ)
		}
	}

	// Second scrape with no GC in between must not replay old pauses.
	before := famValue(t, body, "turbo_go_gc_pause_seconds_count")
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	after := famValue(t, sb.String(), "turbo_go_gc_pause_seconds_count")
	if after != before {
		t.Errorf("pause count moved %v → %v without a GC cycle", before, after)
	}
}

// TestRuntimeCollectorConcurrentScrapes races scrapes against forced GC
// cycles: four goroutines each loop runtime.GC() + WritePrometheus. The
// collector must drain every cycle exactly once, so after a final scrape
// turbo_go_gc_cycles_total equals the NumGC delta since registration —
// no cycle counted twice by two scrapes, and no uint32 wrap from a
// scrape that read NumGC before another stored a larger one. Automatic
// GC is off so forced cycles are the only ones. Run it under -race.
func TestRuntimeCollectorConcurrentScrapes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.NumGC
	r := NewRegistry()
	RegisterRuntimeMetrics(r)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for i := 0; i < 25; i++ {
				runtime.GC()
				sb.Reset()
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	want := float64(ms.NumGC - base)
	if got := famValue(t, sb.String(), "turbo_go_gc_cycles_total"); got != want {
		t.Fatalf("gc cycles counter %v, want the NumGC delta %v", got, want)
	}
	if got := famValue(t, sb.String(), "turbo_go_gc_pause_seconds_count"); got != want {
		t.Fatalf("gc pause count %v, want one pause per cycle (%v)", got, want)
	}
}

// TestOnScrapeHook asserts scrape hooks run before rendering, in
// registration order, on every scrape.
func TestOnScrapeHook(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hook_gauge", "")
	calls := 0
	r.OnScrape(func() {
		calls++
		g.Set(float64(calls))
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if v := famValue(t, sb.String(), "hook_gauge"); v != 1 {
		t.Fatalf("first scrape saw %v, want hook-set 1", v)
	}
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if v := famValue(t, sb.String(), "hook_gauge"); v != 2 {
		t.Fatalf("second scrape saw %v, want 2", v)
	}
}
