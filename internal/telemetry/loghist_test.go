package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"turbo/internal/tensor"
)

// TestLogHistogramExactBelowBand asserts values below the first
// power-of-two band boundary (subBucketCount) are recorded exactly:
// the histogram is value-precise until buckets start widening.
func TestLogHistogramExactBelowBand(t *testing.T) {
	for v := int64(0); v < subBucketCount; v++ {
		idx := countsIndexOf(v)
		lo, hi := bucketBounds(idx)
		if lo != v || hi != v {
			t.Fatalf("value %d: bucket [%d,%d], want exact", v, lo, hi)
		}
	}
}

// TestLogHistogramBucketEdges asserts values landing exactly on
// power-of-two band edges and sub-bucket edges map to buckets that
// contain them, and that adjacent buckets tile the axis with no gaps
// or overlaps.
func TestLogHistogramBucketEdges(t *testing.T) {
	edges := []int64{
		0, 1, 15, 16, 31, // exact range
		32, 33, 62, 63, // first widened band, width 2
		64, 127, 128, 1 << 20, (1 << 20) + 1,
		1<<62 - 1, 1 << 62, math.MaxInt64,
	}
	for _, v := range edges {
		idx := countsIndexOf(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Errorf("value %d mapped to bucket [%d,%d] which excludes it", v, lo, hi)
		}
	}

	// Tiling: walk consecutive occupied-able indices and require
	// bucket i+1 to start exactly one past bucket i's end.
	prevHi := int64(-1)
	for idx := 0; idx < logCountsLen; idx++ {
		lo, hi := bucketBounds(idx)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", idx, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("bucket %d inverted [%d,%d]", idx, lo, hi)
		}
		prevHi = hi
		if hi == math.MaxInt64 {
			break
		}
	}
	if prevHi != math.MaxInt64 {
		t.Fatalf("buckets end at %d, want MaxInt64", prevHi)
	}
}

// TestLogHistogramEmpty asserts every accessor of an empty histogram
// returns zero rather than sentinel garbage.
func TestLogHistogramEmpty(t *testing.T) {
	h := NewLogHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: count=%d sum=%v mean=%v min=%v max=%v",
			h.Count(), h.Sum(), h.Mean(), h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

// TestLogHistogramEmptySummary asserts the digest of an empty histogram
// is all zeros, count and mean included.
func TestLogHistogramEmptySummary(t *testing.T) {
	h := NewLogHistogram()
	if s := h.Summarize(); s != (Summary{}) {
		t.Fatalf("empty summary %+v, want zeros", s)
	}
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram: count=%d mean=%v p50=%v", h.Count(), h.Mean(), h.Quantile(0.5))
	}
}

// TestLogHistogramQuantiles records a known distribution and checks the
// quantiles land within one bucket width of the true values, never
// undershooting and never exceeding the recorded max.
func TestLogHistogramQuantiles(t *testing.T) {
	h := NewLogHistogram()
	// 1..1000 µs, uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	check := func(q float64, trueVal time.Duration) {
		t.Helper()
		got := h.Quantile(q)
		if got < trueVal {
			t.Errorf("Quantile(%v) = %v undershoots true %v", q, got, trueVal)
		}
		// Bounded relative error: one sub-bucket width.
		maxErr := time.Duration(float64(trueVal) / subBucketHalfCount)
		if got > trueVal+maxErr {
			t.Errorf("Quantile(%v) = %v exceeds %v by more than %v", q, got, trueVal, maxErr)
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	check(0.999, 999*time.Microsecond)
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("Quantile(1) = %v, want max %v", got, h.Max())
	}
	if h.Min() != time.Microsecond {
		t.Errorf("min %v", h.Min())
	}
	if h.Max() != time.Millisecond {
		t.Errorf("max %v", h.Max())
	}
	if mean := h.Mean(); mean < 480*time.Microsecond || mean > 520*time.Microsecond {
		t.Errorf("mean %v, want ≈500µs", mean)
	}
}

// TestLogHistogramPercentiles checks quantiles against exact values:
// over 1..100 ms the top quantile is the largest sample and the mean is
// exact, and over seven decades each quantile is the nearest-rank sample
// of a sorted oracle, never undershot and overshot by at most 1/16.
func TestLogHistogramPercentiles(t *testing.T) {
	h := NewLogHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	within := func(name string, got, exact time.Duration) {
		t.Helper()
		if got < exact || got > exact+exact/16 {
			t.Fatalf("%s = %v, exact %v: outside [exact, exact·17/16]", name, got, exact)
		}
	}
	within("p50", h.Quantile(0.50), 50*time.Millisecond)
	within("p99", h.Quantile(0.99), 99*time.Millisecond)
	if p := h.Quantile(1); p != 100*time.Millisecond {
		t.Fatalf("p100 %v", p)
	}
	if m := h.Mean(); m != 50500*time.Microsecond {
		t.Fatalf("mean %v", m)
	}

	// Durations spread over seven decades, against a sorted oracle.
	rng := tensor.NewRNG(5)
	h = NewLogHistogram()
	ds := make([]time.Duration, 5000)
	for i := range ds {
		ds[i] = time.Duration(math.Exp(rng.Float64()*math.Log(1e7)) * float64(time.Microsecond) / 10)
		h.Observe(ds[i])
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		rank := int(math.Ceil(p / 100 * float64(len(ds))))
		within(fmt.Sprintf("p%g", p), h.Quantile(p/100), ds[rank-1])
	}
	if s := h.Summarize(); s.Count != len(ds) || s.P999 != h.Quantile(0.999) || s.P50 != h.Quantile(0.5) || s.Mean != h.Mean() {
		t.Fatalf("summary %+v", s)
	}
}

// TestLogHistogramSummary asserts a one-sample digest reports that
// sample as its mean and every quantile, and renders in the §V style.
func TestLogHistogramSummary(t *testing.T) {
	h := NewLogHistogram()
	d := 1234567 * time.Nanosecond
	h.Observe(d)
	s := h.Summarize()
	if s.Count != 1 || s.Mean != d || s.P50 != d || s.P99 != d || s.P999 != d {
		t.Fatalf("one sample %v summarized as %+v", d, s)
	}
	if got, want := s.String(), "n=1 mean=1.234567ms p50=1.234567ms p99=1.234567ms p999=1.234567ms"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestLogHistogramQuantileNeverExceedsMax asserts the bucket-upper-bound
// quantile is clamped to the true recorded maximum.
func TestLogHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewLogHistogram()
	v := 1001 * time.Microsecond // lands mid-bucket in a wide band
	h.Observe(v)
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %v, want clamped max %v", q, got, v)
		}
	}
}

// TestLogHistogramNegativeClamped asserts negative observations are
// recorded as zero (the open-loop runner can start an op ahead of its
// intended schedule by a scheduler tick).
func TestLogHistogramNegativeClamped(t *testing.T) {
	h := NewLogHistogram()
	h.ObserveNs(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

// TestLogHistogramConcurrent hammers Observe from many goroutines and
// checks totals; run under -race this also proves the atomics claim.
func TestLogHistogramConcurrent(t *testing.T) {
	h := NewLogHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < per; i++ {
				v = v*6364136223846793005 + 1442695040888963407 // LCG
				h.ObserveNs((v >> 33) & 0xfffff)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count %d want %d", got, workers*per)
	}
	s := h.Snapshot()
	if s.Count() != workers*per {
		t.Fatalf("snapshot count %d", s.Count())
	}
	if s.Quantile(0.5) < 0 || s.Quantile(0.5) > s.Max() {
		t.Fatalf("median %v outside [0, %v]", s.Quantile(0.5), s.Max())
	}
}

// TestFixedHistogramEdgeCases covers the fixed-bucket Histogram paths
// the golden test does not: values exactly on bucket edges count into
// that bucket (le semantics), values beyond the top bound land in +Inf
// only, and an empty histogram exposes all-zero cumulative buckets.
func TestFixedHistogramEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})

	// Empty: every cumulative bucket 0, count 0.
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty count=%d sum=%v", s.Count, s.Sum)
	}
	for i, c := range s.Cumulative {
		if c != 0 {
			t.Fatalf("empty cumulative[%d] = %d", i, c)
		}
	}

	// Edge values are ≤-inclusive.
	h.Observe(1) // le=1
	h.Observe(2) // le=2
	h.Observe(4) // le=4
	h.Observe(5) // +Inf only
	s = h.Snapshot()
	want := []uint64{1, 2, 3, 4}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d want %d (full: %v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if s.Count != 4 {
		t.Fatalf("count %d", s.Count)
	}
	// The +Inf bucket always equals Count.
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Fatalf("+Inf bucket %d != count %d", s.Cumulative[len(s.Cumulative)-1], s.Count)
	}
}
