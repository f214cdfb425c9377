// Package telemetry is the observability layer of the online stack: a
// metrics registry with typed counters, gauges and log-bucketed latency
// histograms (histogram.go) exposed in Prometheus text format, plus
// per-request audit traces collected in a bounded lock-free ring (see
// trace.go).
//
// The hot path is built for the audit loop of §V: an observation on a
// resolved handle is a few atomic operations (one for a counter, five
// for a histogram) — no lock, no map lookup, no allocation. Labeled metrics are resolved once via With()
// and the returned handle is cached by the instrumented component;
// exposition (a scrape) is the only code path that takes locks.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use; all methods are lock-free and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters must only go up: n must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (sizes, states, epochs). The
// zero value is ready to use; Set/Add/Value are lock-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge via a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// keySep joins label values into cell map keys; label values containing
// it still produce distinct keys in practice because it never appears in
// escaped exposition output, and collisions only merge debug cells.
const keySep = "\x1f"

// cell pairs resolved label values with their metric instance.
type cell[M any] struct {
	values []string
	m      M
}

// vec is the shared labeled-metric container: a read-mostly map from
// joined label values to cells. With() is the resolve-once path —
// instrumented code caches the returned handle, so observations never
// touch the map.
type vec[M any] struct {
	labels []string
	mk     func() M
	mu     sync.RWMutex
	cells  map[string]*cell[M]
}

func newVec[M any](labels []string, mk func() M) *vec[M] {
	return &vec[M]{labels: labels, mk: mk, cells: make(map[string]*cell[M])}
}

func (v *vec[M]) with(values ...string) M {
	if len(values) != len(v.labels) {
		panic("telemetry: label value count mismatch")
	}
	key := strings.Join(values, keySep)
	v.mu.RLock()
	c := v.cells[key]
	v.mu.RUnlock()
	if c != nil {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.cells[key]; c != nil {
		return c.m
	}
	c = &cell[M]{values: append([]string(nil), values...), m: v.mk()}
	v.cells[key] = c
	return c.m
}

// walk visits every cell sorted by label values (stable exposition).
func (v *vec[M]) walk(fn func(values []string, m M)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.cells))
	for k := range v.cells {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.cells[k]
		v.mu.RUnlock()
		if c != nil {
			fn(c.values, c.m)
		}
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	*vec[*Counter]
}

// NewCounterVec builds an unregistered counter vec; Registry.CounterVec
// is the registered path.
func NewCounterVec(labels ...string) *CounterVec {
	return &CounterVec{newVec(labels, func() *Counter { return &Counter{} })}
}

// With resolves the cell for the given label values, creating it on
// first use. Cache the returned handle on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// Walk visits every cell in stable (sorted label values) order.
func (v *CounterVec) Walk(fn func(values []string, c *Counter)) { v.walk(fn) }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	*vec[*Gauge]
}

// NewGaugeVec builds an unregistered gauge vec.
func NewGaugeVec(labels ...string) *GaugeVec {
	return &GaugeVec{newVec(labels, func() *Gauge { return &Gauge{} })}
}

// With resolves the cell for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values...) }

// Walk visits every cell in stable order.
func (v *GaugeVec) Walk(fn func(values []string, g *Gauge)) { v.walk(fn) }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	*vec[*Histogram]
}

// NewHistogramVec builds an unregistered histogram vec.
func NewHistogramVec(labels ...string) *HistogramVec {
	return &HistogramVec{newVec(labels, NewHistogram)}
}

// With resolves the cell for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// Walk visits every cell in stable order.
func (v *HistogramVec) Walk(fn func(values []string, h *Histogram)) { v.walk(fn) }
