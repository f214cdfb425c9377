package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceRingBounded pins the ring contract: capacity bounds storage,
// Last returns newest first, and oversized k is clamped.
func TestTraceRingBounded(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		r.Push(&Trace{seq: uint64(i)})
	}
	got := r.Last(100)
	if len(got) != 4 {
		t.Fatalf("ring returned %d traces, capacity 4", len(got))
	}
	for i, tr := range got {
		if want := uint64(9 - i); tr.seq != want {
			t.Fatalf("Last[%d] = trace %d want %d (newest first)", i, tr.seq, want)
		}
	}
	if n := len(r.Last(2)); n != 2 {
		t.Fatalf("Last(2) returned %d", n)
	}
	if n := len(r.Last(-1)); n != 0 {
		t.Fatalf("Last(-1) returned %d", n)
	}
}

// TestTraceRingPartiallyFull asserts empty slots are skipped before the
// ring wraps.
func TestTraceRingPartiallyFull(t *testing.T) {
	r := NewTraceRing(8)
	r.Push(&Trace{seq: 7})
	got := r.Last(8)
	if len(got) != 1 || got[0].seq != 7 {
		t.Fatalf("partial ring read %v", got)
	}
}

// TestTraceRingConcurrent hammers Push and Last from many goroutines;
// run under -race this pins the lock-free claims.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Push(&Trace{seq: uint64(g*500 + i), start: time.Now()})
				if i%16 == 0 {
					for _, tr := range r.Last(16) {
						_ = tr.ID()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.Last(16)) != 16 {
		t.Fatal("ring not full after 4000 pushes")
	}
}

// TestTracerLifecycle covers Start/Finish: context plumbing, span and
// metadata accumulation, and ring publication.
func TestTracerLifecycle(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 4})
	ctx, trace := tr.Start(context.Background(), 42)
	if TraceFrom(ctx) != trace {
		t.Fatal("trace not attached to context")
	}
	trace.AddSpan("sample", trace.Start(), 3*time.Millisecond, "ok")
	trace.AddSpan("feature", trace.Start(), 5*time.Millisecond, "timeout")
	trace.SetTier("fallback", true)
	trace.SetBreaker("open")
	trace.AddRetries(2)
	trace.AddFault("error")
	trace.AddFault("error")
	tr.Finish(trace)

	if got := tr.Ring().Last(1); len(got) != 1 || got[0] != trace {
		t.Fatal("finished trace not in ring")
	}
	if trace.Total() <= 0 {
		t.Fatal("total not stamped")
	}
	if trace.Retries() != 2 || trace.Faults()["error"] != 2 || trace.ServedBy() != "fallback" {
		t.Fatalf("metadata lost: retries=%d faults=%v tier=%s",
			trace.Retries(), trace.Faults(), trace.ServedBy())
	}

	raw, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["served_by"] != "fallback" || decoded["breaker"] != "open" {
		t.Fatalf("JSON %s", raw)
	}
	spans := decoded["spans"].([]any)
	if len(spans) != 2 || spans[0].(map[string]any)["name"] != "sample" {
		t.Fatalf("spans JSON %v", spans)
	}
}

// TestTraceID pins the trace ID string, formatted on read, to the
// format it had when Start formatted it: the start time's Unix
// nanoseconds and the tracer's sequence number in hex. The ID in
// /debug/traces JSON and in the slow-audit line is the same string.
func TestTraceID(t *testing.T) {
	fixed := &Trace{start: time.Unix(0, 0x16f2a3b4c5d6e7f8), seq: 0x2a}
	if got, want := fixed.ID(), "16f2a3b4c5d6e7f8-2a"; got != want {
		t.Fatalf("ID %q want %q", got, want)
	}

	var lines []string
	tr := NewTracer(TracerOptions{
		SlowThreshold: time.Nanosecond,
		Logf:          func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	for seq := uint64(1); seq <= 2; seq++ {
		_, trace := tr.Start(context.Background(), 9)
		want := fmt.Sprintf("%x-%x", trace.Start().UnixNano(), seq)
		if trace.ID() != want {
			t.Fatalf("trace %d: ID %q want %q", seq, trace.ID(), want)
		}
		tr.Finish(trace)
		raw, err := json.Marshal(trace)
		if err != nil {
			t.Fatal(err)
		}
		var decoded struct{ ID string }
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		if decoded.ID != want {
			t.Fatalf("JSON id %q want %q", decoded.ID, want)
		}
		if !strings.Contains(lines[len(lines)-1], "trace="+want+" ") {
			t.Fatalf("slow line %q lacks trace=%s", lines[len(lines)-1], want)
		}
	}
}

// TestTracerSlowLogging asserts audits over the threshold log the span
// breakdown and bump the slow counter; fast audits do not.
func TestTracerSlowLogging(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	slow := &Counter{}
	tr := NewTracer(TracerOptions{
		RingSize:      4,
		SlowThreshold: time.Nanosecond, // everything is slow
		SlowCounter:   slow,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	_, trace := tr.Start(context.Background(), 7)
	trace.AddSpan("sample", trace.Start(), time.Millisecond, "ok")
	trace.SetTier("hag", false)
	tr.Finish(trace)

	if slow.Value() != 1 {
		t.Fatalf("slow counter %d want 1", slow.Value())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow log lines %d want 1", len(lines))
	}
	for _, frag := range []string{"user=7", "served_by=hag", "sample=1ms/ok"} {
		if !strings.Contains(lines[0], frag) {
			t.Fatalf("slow line %q missing %q", lines[0], frag)
		}
	}

	// A tracer with no threshold never logs.
	quiet := NewTracer(TracerOptions{RingSize: 1, Logf: func(string, ...any) {
		t.Fatal("logged without a threshold")
	}})
	_, tq := quiet.Start(context.Background(), 1)
	quiet.Finish(tq)
}

// TestNilSafety pins that a nil tracer and nil trace are inert, so the
// serving path can instrument unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, trace := tr.Start(context.Background(), 1)
	if trace != nil {
		t.Fatal("nil tracer produced a trace")
	}
	trace.AddSpan("x", time.Now(), time.Second, "ok")
	trace.SetTier("hag", false)
	trace.AddRetries(1)
	trace.AddFault("error")
	trace.SetError(context.Canceled)
	tr.Finish(trace)
	if TraceFrom(ctx) != nil {
		t.Fatal("nil trace attached to context")
	}
}

// TestOutcome pins the error classification used in span records.
func TestOutcome(t *testing.T) {
	cases := map[string]error{
		"ok":       nil,
		"timeout":  context.DeadlineExceeded,
		"canceled": context.Canceled,
		"error":    fmt.Errorf("boom"),
	}
	for want, err := range cases {
		if got := Outcome(err); got != want {
			t.Fatalf("Outcome(%v) = %q want %q", err, got, want)
		}
	}
	if got := Outcome(fmt.Errorf("wrap: %w", context.DeadlineExceeded)); got != "timeout" {
		t.Fatalf("wrapped deadline classified %q", got)
	}
}
