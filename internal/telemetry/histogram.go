package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is the one latency histogram of the stack: an HDR-style
// log-bucketed histogram of nanosecond durations. The server records
// every audit stage and every background latency into it, /latency
// summarizes it, /metrics renders exact Prometheus buckets from it
// (writeHistogram), and the load generator records client-side latency
// into the same layout, so server and client views compare slot for
// slot.
//
// Values are bucketed into power-of-two bands, each band split into
// 2^subBucketBits linear sub-buckets, so any recorded value lands in a
// bucket whose width is at most value/2^(subBucketBits-1) — a bounded
// relative error (≈6% worst case at subBucketBits=5) at a fixed, small
// memory footprint that covers the full int64 range. This is the
// HdrHistogram layout: it needs no a-priori bucket choice and never
// overflows.
//
// Observe is lock-free and allocation-free (three atomic adds plus two
// CAS loops for min/max). Quantile and Snapshot are for the reporting
// path and take no locks either; a scrape concurrent with observations
// sees each slot's count at some instant during the scrape.
// The zero value is NOT ready to use; call NewHistogram.
type Histogram struct {
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // total nanoseconds
	min    atomic.Int64
	max    atomic.Int64
}

const (
	subBucketBits      = 5
	subBucketCount     = 1 << subBucketBits // 32 linear sub-buckets per band
	subBucketHalfCount = subBucketCount / 2
	subBucketMask      = subBucketCount - 1
	// bucketCount bands cover [0, MaxInt64]: band 0 holds values
	// 0..subBucketCount-1 exactly, each later band doubles the range
	// using the upper half of its sub-buckets.
	bucketCount  = 64 - subBucketBits + 1
	logCountsLen = (bucketCount + 1) * subBucketHalfCount
)

// NewHistogram returns an empty histogram covering [0, MaxInt64]
// nanoseconds.
func NewHistogram() *Histogram {
	h := &Histogram{counts: make([]atomic.Int64, logCountsLen)}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndexOf returns the power-of-two band index for v (v ≥ 0).
func bucketIndexOf(v int64) int {
	// Smallest power of two ≥ v+1, floored at the sub-bucket range.
	return bits.Len64(uint64(v)|subBucketMask) - subBucketBits
}

// countsIndexOf maps a value to its slot in the counts array.
func countsIndexOf(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bucketIndexOf(v)
	sub := int(v >> uint(b)) // in [subBucketHalfCount, subBucketCount) except band 0
	return (b+1)*subBucketHalfCount + (sub - subBucketHalfCount)
}

// bucketBounds returns the inclusive value range [lo, hi] covered by
// counts slot idx.
func bucketBounds(idx int) (lo, hi int64) {
	b := idx/subBucketHalfCount - 1
	sub := idx%subBucketHalfCount + subBucketHalfCount
	if b < 0 {
		// Band 0 lower half: exact values 0..15.
		b, sub = 0, sub-subBucketHalfCount
	}
	lo = int64(sub) << uint(b)
	width := int64(1) << uint(b)
	hi = lo + width - 1
	if hi < lo { // top band overflow clamp
		hi = math.MaxInt64
	}
	return lo, hi
}

// Observe records one duration. Negative values are clamped to zero (a
// scheduler can report an op that ran ahead of its intended start).
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[countsIndexOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all recorded values.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	v := h.min.Load()
	if v == math.MaxInt64 {
		return 0
	}
	return time.Duration(v)
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the first bucket whose cumulative count reaches q·Count (so the
// reported value is ≥ the true quantile, by at most one bucket width).
// Returns 0 for an empty histogram; q outside [0,1] is clamped.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Snapshot is a point-in-time copy of a Histogram for consistent
// multi-quantile reporting and exposition.
type Snapshot struct {
	counts []int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		counts: make([]int64, len(h.counts)),
		sum:    h.sum.Load(),
		min:    h.min.Load(),
		max:    h.max.Load(),
	}
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i] = c
		total += c
	}
	// Derive count from the buckets so quantile walks always terminate
	// even when racing concurrent observations.
	s.count = total
	return s
}

// Count returns the number of values in the snapshot.
func (s Snapshot) Count() int64 { return s.count }

// Sum returns the total of the snapshot's values.
func (s Snapshot) Sum() time.Duration { return time.Duration(s.sum) }

// Mean returns the snapshot mean, or 0 when empty.
func (s Snapshot) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return time.Duration(s.sum / s.count)
}

// Min returns the smallest recorded value, or 0 when empty.
func (s Snapshot) Min() time.Duration {
	if s.min == math.MaxInt64 {
		return 0
	}
	return time.Duration(s.min)
}

// Max returns the largest recorded value, or 0 when empty.
func (s Snapshot) Max() time.Duration { return time.Duration(s.max) }

// Quantile returns the value at quantile q (see Histogram.Quantile).
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(s.count)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= need {
			_, hi := bucketBounds(i)
			// Never report beyond the true max: the top occupied
			// bucket's upper bound can overshoot by one bucket width.
			if s.max != math.MaxInt64 && hi > s.max && s.max >= 0 {
				hi = s.max
			}
			return time.Duration(hi)
		}
	}
	return s.Max()
}

// Summary is the §V percentile digest (Fig. 8a): count, exact mean and
// the p50/p99/p999 quantiles of one snapshot.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// Summarize computes the digest from one snapshot of the histogram.
func (h *Histogram) Summarize() Summary {
	s := h.Snapshot()
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
