package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of an audit (sample / feature / score).
type Span struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Outcome  string        `json:"outcome"`
}

// Trace is the per-request audit record: trace ID, per-stage spans,
// the serving tier, breaker state, retry count and injected faults. A
// nil *Trace is a valid no-op receiver for every method, so
// instrumented code records unconditionally. Methods are safe for
// concurrent use — a stage abandoned at its deadline may still be
// appending from its goroutine while the request finishes.
type Trace struct {
	mu       sync.Mutex
	seq      uint64 // tracer sequence number; with start, the trace ID
	user     uint64
	start    time.Time
	total    time.Duration
	spans    []Span
	servedBy string
	degraded bool
	breaker  string
	retries  int
	faults   map[string]int
	errMsg   string
}

// ID returns the trace ID: the start time's Unix nanoseconds and the
// tracer's sequence number, in hex. It is formatted on read, not on
// Start, because most audits never have their ID read.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%x-%x", t.start.UnixNano(), t.seq)
}

// Start returns the trace start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Total returns the end-to-end duration stamped by Tracer.Finish.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// AddSpan appends one completed stage.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration, outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Duration: d, Outcome: outcome})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SetTier records the serving tier that produced the response.
func (t *Trace) SetTier(tier string, degraded bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.servedBy, t.degraded = tier, degraded
	t.mu.Unlock()
}

// ServedBy returns the recorded serving tier.
func (t *Trace) ServedBy() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.servedBy
}

// SetBreaker records the feature-breaker state observed at completion.
func (t *Trace) SetBreaker(state string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.breaker = state
	t.mu.Unlock()
}

// AddRetries adds n feature-fetch retries to the trace.
func (t *Trace) AddRetries(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	t.retries += n
	t.mu.Unlock()
}

// Retries returns the recorded retry count.
func (t *Trace) Retries() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries
}

// AddFault counts one injected fault of the given kind (error / delay /
// hang). The fault injector calls this through the request context.
func (t *Trace) AddFault(kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.faults == nil {
		t.faults = make(map[string]int, 2)
	}
	t.faults[kind]++
	t.mu.Unlock()
}

// Faults returns a copy of the injected-fault counts.
func (t *Trace) Faults() map[string]int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.faults))
	for k, v := range t.faults {
		out[k] = v
	}
	return out
}

// SetError records the terminal error of a failed audit.
func (t *Trace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.errMsg = err.Error()
	t.mu.Unlock()
}

// MarshalJSON renders the trace for /debug/traces.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.Marshal(struct {
		ID       string         `json:"id"`
		User     uint64         `json:"user"`
		Start    time.Time      `json:"start"`
		TotalNs  int64          `json:"total_ns"`
		Total    string         `json:"total"`
		ServedBy string         `json:"served_by"`
		Degraded bool           `json:"degraded"`
		Breaker  string         `json:"breaker,omitempty"`
		Retries  int            `json:"retries"`
		Faults   map[string]int `json:"faults,omitempty"`
		Error    string         `json:"error,omitempty"`
		Spans    []Span         `json:"spans"`
	}{
		ID: t.ID(), User: t.user, Start: t.start,
		TotalNs: int64(t.total), Total: t.total.String(),
		ServedBy: t.servedBy, Degraded: t.degraded, Breaker: t.breaker,
		Retries: t.retries, Faults: t.faults, Error: t.errMsg,
		Spans: t.spans,
	})
}

// spanBreakdown renders "sample=1.2ms/ok feature=3ms/timeout …" for the
// slow-audit log line. Callers hold t.mu.
func (t *Trace) spanBreakdown() string {
	var b strings.Builder
	for i, s := range t.spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v/%s", s.Name, s.Duration, s.Outcome)
	}
	return b.String()
}

// traceKey carries the active *Trace on a context.
type traceKey struct{}

// WithTrace attaches t to ctx.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. The nil result is
// safe to call methods on.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Outcome classifies an error for span records: "ok", "timeout",
// "canceled" or "error".
func Outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// TraceRing is a bounded lock-free ring of completed traces: writers
// claim a slot with one atomic increment and publish with one atomic
// pointer store; readers walk backwards from the newest slot.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewTraceRing builds a ring holding the last size traces (minimum 1).
func NewTraceRing(size int) *TraceRing {
	if size < 1 {
		size = 1
	}
	return &TraceRing{slots: make([]atomic.Pointer[Trace], size)}
}

// Size returns the ring capacity.
func (r *TraceRing) Size() int { return len(r.slots) }

// Push publishes a completed trace, overwriting the oldest slot.
func (r *TraceRing) Push(t *Trace) {
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(t)
}

// Last returns up to k traces, newest first. k is clamped to the ring
// size; empty slots (ring not yet full) are skipped.
func (r *TraceRing) Last(k int) []*Trace {
	n := r.next.Load()
	if k < 0 {
		k = 0
	}
	if k > len(r.slots) {
		k = len(r.slots)
	}
	out := make([]*Trace, 0, k)
	for i := uint64(0); i < uint64(k) && i < n; i++ {
		idx := n - 1 - i
		if t := r.slots[idx%uint64(len(r.slots))].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// TracerOptions configures a Tracer. Zero values select a 256-slot ring,
// no slow-audit logging and no slow counter.
type TracerOptions struct {
	// RingSize bounds the completed-trace ring. 0 selects 256.
	RingSize int
	// SlowThreshold logs the full span breakdown of any audit at least
	// this slow. 0 disables slow-audit logging.
	SlowThreshold time.Duration
	// Logf receives slow-audit lines (log.Printf-shaped). Nil discards.
	Logf func(format string, args ...any)
	// SlowCounter, when set, counts slow audits (turbo_traces_slow_total).
	SlowCounter *Counter
}

// Tracer starts and finishes audit traces. A nil *Tracer is a valid
// no-op, so the serving path instruments unconditionally.
type Tracer struct {
	ring *TraceRing
	opts TracerOptions
	seq  atomic.Uint64
}

// NewTracer builds a tracer with a bounded completed-trace ring.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	return &Tracer{ring: NewTraceRing(opts.RingSize), opts: opts}
}

// Ring exposes the completed-trace ring (the /debug/traces source).
func (tr *Tracer) Ring() *TraceRing {
	if tr == nil {
		return nil
	}
	return tr.ring
}

// SlowThreshold returns the configured slow-audit threshold.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.opts.SlowThreshold
}

// Start opens a trace for one audit of user u and attaches it to ctx.
func (tr *Tracer) Start(ctx context.Context, u uint64) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	now := time.Now()
	t := &Trace{
		seq:   tr.seq.Add(1),
		user:  u,
		start: now,
	}
	return WithTrace(ctx, t), t
}

// Finish stamps the total duration, publishes the trace to the ring and
// logs the span breakdown when the audit crossed the slow threshold.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.mu.Lock()
	t.total = time.Since(t.start)
	slow := tr.opts.SlowThreshold > 0 && t.total >= tr.opts.SlowThreshold
	var line string
	if slow && tr.opts.Logf != nil {
		line = fmt.Sprintf("slow audit trace=%s user=%d total=%v served_by=%s breaker=%s retries=%d spans: %s",
			t.ID(), t.user, t.total, t.servedBy, t.breaker, t.retries, t.spanBreakdown())
	}
	t.mu.Unlock()

	tr.ring.Push(t)
	if slow {
		if tr.opts.SlowCounter != nil {
			tr.opts.SlowCounter.Inc()
		}
		if tr.opts.Logf != nil {
			tr.opts.Logf("%s", line)
		}
	}
}
