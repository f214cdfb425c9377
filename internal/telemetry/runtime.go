package telemetry

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// runtimeCollector refreshes Go runtime health metrics at scrape time.
// Saturation diagnosis needs these next to the service metrics: a p99
// regression with a goroutine pileup is queueing, with a heap ramp it
// is allocation pressure, with GC pause growth it is collector
// interference.
type runtimeCollector struct {
	goroutines  *Gauge
	heapAlloc   *Gauge
	heapSys     *Gauge
	heapObjects *Gauge
	gcCycles    *Counter
	gcPause     *Histogram
	schedP50    *Gauge
	schedP99    *Gauge

	// mu serializes collect: scrape hooks run outside the registry
	// lock, and two concurrent scrapes must not both drain the same
	// pauses or see lastNumGC move past the NumGC they read.
	mu        sync.Mutex
	lastNumGC uint32
	schedOK   bool
	sample    []metrics.Sample
}

// RegisterRuntimeMetrics installs the scrape-time Go runtime collector
// on r: goroutine count, heap gauges, a GC pause histogram fed from the
// runtime's pause ring, and scheduler latency quantiles. Safe to call
// more than once on the same registry (get-or-create semantics make
// the second collector observe the same families; only the hook
// registered first drains the pause ring meaningfully, the rest see an
// empty delta).
func RegisterRuntimeMetrics(r *Registry) {
	c := &runtimeCollector{
		goroutines:  r.Gauge("turbo_go_goroutines", "Number of live goroutines at scrape time."),
		heapAlloc:   r.Gauge("turbo_go_heap_alloc_bytes", "Bytes of allocated heap objects."),
		heapSys:     r.Gauge("turbo_go_heap_sys_bytes", "Bytes of heap memory obtained from the OS."),
		heapObjects: r.Gauge("turbo_go_heap_objects", "Number of allocated heap objects."),
		gcCycles:    r.Counter("turbo_go_gc_cycles_total", "Completed GC cycles."),
		gcPause:     r.Histogram("turbo_go_gc_pause_seconds", "Stop-the-world GC pause durations."),
		schedP50:    r.Gauge("turbo_go_sched_latency_p50_seconds", "Median goroutine scheduling latency since process start."),
		schedP99:    r.Gauge("turbo_go_sched_latency_p99_seconds", "P99 goroutine scheduling latency since process start."),
		sample:      []metrics.Sample{{Name: "/sched/latencies:seconds"}},
	}
	// Probe once: the metric exists on every toolchain this module
	// supports, but degrade to zeros rather than panic if it vanishes.
	metrics.Read(c.sample)
	c.schedOK = c.sample[0].Value.Kind() == metrics.KindFloat64Histogram
	// Baseline NumGC so pauses from before the collector was installed
	// are not replayed into the histogram.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.lastNumGC = ms.NumGC
	r.OnScrape(c.collect)
}

// collect refreshes every runtime family. Runs on the scrape path only.
func (c *runtimeCollector) collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.goroutines.Set(float64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapAlloc.Set(float64(ms.HeapAlloc))
	c.heapSys.Set(float64(ms.HeapSys))
	c.heapObjects.Set(float64(ms.HeapObjects))

	// Drain the pause ring: PauseNs is a 256-entry circular buffer
	// indexed by ((NumGC+255)%256); replay only the cycles completed
	// since the previous scrape.
	if n := ms.NumGC - c.lastNumGC; n > 0 {
		if n > 256 {
			n = 256
		}
		for i := uint32(0); i < n; i++ {
			cycle := ms.NumGC - i
			pause := ms.PauseNs[(cycle+255)%256]
			c.gcPause.Observe(time.Duration(pause))
		}
		c.gcCycles.Add(int64(ms.NumGC - c.lastNumGC))
		c.lastNumGC = ms.NumGC
	}

	if !c.schedOK {
		return
	}
	metrics.Read(c.sample)
	if h := c.sample[0].Value.Float64Histogram(); h != nil {
		c.schedP50.Set(histQuantile(h, 0.50))
		c.schedP99.Set(histQuantile(h, 0.99))
	}
}

// histQuantile approximates quantile q of a runtime/metrics cumulative
// histogram, reporting the upper edge of the covering bucket (or the
// lower edge when that upper edge is +Inf).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
