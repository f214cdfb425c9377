package telemetry

import (
	"sync"
	"testing"
	"time"
)

// legacyCounterSet reproduces the pre-telemetry metrics.CounterSet hot
// path — a mutex-guarded map — as the benchmark baseline. The online
// stack now counts through resolved handles of this package, so the old
// implementation lives here for comparison only.
type legacyCounterSet struct {
	mu     sync.RWMutex
	counts map[string]int64
}

func (c *legacyCounterSet) Inc(name string) {
	c.mu.Lock()
	c.counts[name]++
	c.mu.Unlock()
}

// BenchmarkLegacyCounterSetInc measures the old mutex-map counter under
// parallel load (8× GOMAXPROCS goroutines).
func BenchmarkLegacyCounterSetInc(b *testing.B) {
	c := &legacyCounterSet{counts: make(map[string]int64)}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc("hag")
		}
	})
}

// BenchmarkAtomicCounterInc measures the replacement: a resolved
// telemetry.Counter handle, one atomic add per observation.
func BenchmarkAtomicCounterInc(b *testing.B) {
	c := &Counter{}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkCounterVecWith measures the labeled path including the
// per-observation map resolve — what callers pay when they do NOT cache
// the handle.
func BenchmarkCounterVecWith(b *testing.B) {
	v := NewCounterVec("outcome")
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("hag").Inc()
		}
	})
}

// BenchmarkHistogramObserve measures a latency observation on a
// resolved histogram handle.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(nil)
	b.SetParallelism(8)
	b.ReportAllocs()
	d := 3 * time.Millisecond
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ObserveDuration(d)
		}
	})
}
