package metrics

import (
	"fmt"
	"time"

	"turbo/internal/telemetry"
)

// LatencyRecorder collects durations and reports the percentile summary
// used throughout §V (p50/p99/p999) and Fig. 8a. It is backed by a
// telemetry.LogHistogram, so Record is atomic, allocation-free and
// fixed-size however many samples arrive. A percentile is the upper
// bound of the sub-bucket holding the nearest-rank sample, clamped to
// the largest sample: never below the exact value, and above it by at
// most one sub-bucket width, 1/16 of the value. The mean is exact.
type LatencyRecorder struct {
	h *telemetry.LogHistogram
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{h: telemetry.NewLogHistogram()}
}

// Record adds one sample.
func (l *LatencyRecorder) Record(d time.Duration) { l.h.Observe(d) }

// Time runs fn and records its wall-clock duration.
func (l *LatencyRecorder) Time(fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.Record(d)
	return d
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int { return int(l.h.Count()) }

// Percentile returns the p-th percentile (0 < p <= 100), or 0 with no
// samples.
func (l *LatencyRecorder) Percentile(p float64) time.Duration { return l.h.Quantile(p / 100) }

// Mean returns the average sample, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration { return l.h.Mean() }

// Summary is the §V percentile digest.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// Summarize computes the digest from one snapshot of the recorder.
func (l *LatencyRecorder) Summarize() Summary {
	s := l.h.Snapshot()
	return Summary{
		Count: int(s.Count()),
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// String renders the digest in the §V style.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p999=%v", s.Count, s.Mean, s.P50, s.P99, s.P999)
}
