package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExpositionGolden pins the full Prometheus text output of a small
// registry: family ordering (sorted by name), cell ordering (sorted by
// label values), label escaping, and the histogram line set. CI fails
// on any drift — dashboards parse this format.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	// Registered out of name order on purpose.
	r.Gauge("zz_gauge", "a gauge").Set(2.5)
	c := r.CounterVec("aa_outcomes_total", "audits by outcome", "outcome")
	c.With("hag").Add(3)
	c.With("fallback").Inc()
	c.With(`we"ird\value` + "\n").Inc()
	// Exactly representable values keep the _sum line stable; 40 s lies
	// past the top le and counts in +Inf only.
	h := r.Histogram("mm_latency_seconds", "stage latency")
	h.Observe(125 * time.Millisecond)
	h.Observe(375 * time.Millisecond)
	h.Observe(375 * time.Millisecond)
	h.Observe(5 * time.Second)
	h.Observe(40 * time.Second)
	r.Counter("bb_plain_total", "no labels").Add(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_outcomes_total audits by outcome
# TYPE aa_outcomes_total counter
aa_outcomes_total{outcome="fallback"} 1
aa_outcomes_total{outcome="hag"} 3
aa_outcomes_total{outcome="we\"ird\\value\n"} 1
# HELP bb_plain_total no labels
# TYPE bb_plain_total counter
bb_plain_total 7
# HELP mm_latency_seconds stage latency
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{le="1.023e-06"} 0
mm_latency_seconds_bucket{le="2.047e-06"} 0
mm_latency_seconds_bucket{le="4.095e-06"} 0
mm_latency_seconds_bucket{le="8.191e-06"} 0
mm_latency_seconds_bucket{le="1.6383e-05"} 0
mm_latency_seconds_bucket{le="3.2767e-05"} 0
mm_latency_seconds_bucket{le="6.5535e-05"} 0
mm_latency_seconds_bucket{le="0.000131071"} 0
mm_latency_seconds_bucket{le="0.000262143"} 0
mm_latency_seconds_bucket{le="0.000524287"} 0
mm_latency_seconds_bucket{le="0.001048575"} 0
mm_latency_seconds_bucket{le="0.002097151"} 0
mm_latency_seconds_bucket{le="0.004194303"} 0
mm_latency_seconds_bucket{le="0.008388607"} 0
mm_latency_seconds_bucket{le="0.016777215"} 0
mm_latency_seconds_bucket{le="0.033554431"} 0
mm_latency_seconds_bucket{le="0.067108863"} 0
mm_latency_seconds_bucket{le="0.134217727"} 1
mm_latency_seconds_bucket{le="0.268435455"} 1
mm_latency_seconds_bucket{le="0.536870911"} 3
mm_latency_seconds_bucket{le="1.073741823"} 3
mm_latency_seconds_bucket{le="2.147483647"} 3
mm_latency_seconds_bucket{le="4.294967295"} 3
mm_latency_seconds_bucket{le="8.589934591"} 4
mm_latency_seconds_bucket{le="17.179869183"} 4
mm_latency_seconds_bucket{le="34.359738367"} 4
mm_latency_seconds_bucket{le="+Inf"} 5
mm_latency_seconds_sum 45.875
mm_latency_seconds_count 5
# HELP zz_gauge a gauge
# TYPE zz_gauge gauge
zz_gauge 2.5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// expoHistogram parses the exposition of the unlabeled histogram name:
// its le bounds in nanoseconds with their cumulative counts, the +Inf
// bucket, _count and _sum.
func expoHistogram(t *testing.T, r *Registry, name string) (le, cum []int64, inf, count int64, sum float64) {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	inf, count = -1, -1
	for _, line := range strings.Split(b.String(), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		key, val := line[:sp], line[sp+1:]
		switch {
		case key == name+`_bucket{le="+Inf"}`:
			inf, _ = strconv.ParseInt(val, 10, 64)
		case strings.HasPrefix(key, name+`_bucket{le="`):
			bound, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(key, name+`_bucket{le="`), `"}`), 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			c, _ := strconv.ParseInt(val, 10, 64)
			le = append(le, int64(math.Round(bound*1e9)))
			cum = append(cum, c)
		case key == name+"_count":
			count, _ = strconv.ParseInt(val, 10, 64)
		case key == name+"_sum":
			sum, _ = strconv.ParseFloat(val, 64)
		}
	}
	if inf < 0 || count < 0 || len(le) == 0 {
		t.Fatalf("exposition of %s incomplete:\n%s", name, b.String())
	}
	return le, cum, inf, count, sum
}

// TestHistogramInvariants checks the Prometheus histogram contract on
// the exposition: cumulative buckets are non-decreasing, the +Inf
// bucket equals the count, a value exactly on an le counts in that
// bucket, negative durations count as zero, and _sum is the nanosecond
// sum in seconds.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_seconds", "")
	vals := []time.Duration{500, 1023, 1024, 0, -3, 10 * time.Millisecond, time.Second, 40 * time.Second}
	var sumNs int64
	for _, v := range vals {
		h.Observe(v)
		sumNs += max(int64(v), 0)
	}
	le, cum, inf, count, sum := expoHistogram(t, r, "inv_seconds")
	if count != int64(len(vals)) || inf != count {
		t.Fatalf("count %d, +Inf %d, want both %d", count, inf, len(vals))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative: %v", cum)
		}
	}
	// le is inclusive: 1023 ns counts in the first bucket, with 500, 0
	// and the clamped -3.
	if le[0] != 1023 || cum[0] != 4 {
		t.Fatalf("first bucket le=%dns holds %d, want le=1023ns holding 4", le[0], cum[0])
	}
	if want := float64(sumNs) / 1e9; sum != want {
		t.Fatalf("sum %v want %v", sum, want)
	}
}

// TestExpositionBucketsExact observes values 1 ns below, at and 1 ns
// above every le of the exposition layout and requires every _bucket
// line to equal the number of observations ≤ its le: each le sits on a
// slot's inclusive upper edge, so the rendered counts carry no
// histogram error. An empty histogram renders all zeros, values past
// the top le count in +Inf only, and +Inf always equals _count.
func TestExpositionBucketsExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("exact_seconds", "")

	le, cum, inf, count, sum := expoHistogram(t, r, "exact_seconds")
	if inf != 0 || count != 0 || sum != 0 {
		t.Fatalf("empty histogram: +Inf %d count %d sum %v", inf, count, sum)
	}
	for i, c := range cum {
		if c != 0 {
			t.Fatalf("empty histogram: bucket le=%dns holds %d", le[i], c)
		}
	}
	if n := len(le); n != expoMaxShift-expoMinShift+1 || le[0] != 1<<expoMinShift-1 || le[n-1] != 1<<expoMaxShift-1 {
		t.Fatalf("layout has %d le from %dns to %dns, want one per power of two 2^%d..2^%d ns, each minus 1",
			n, le[0], le[n-1], expoMinShift, expoMaxShift)
	}

	var obs []int64
	for _, e := range le {
		for _, v := range []int64{e - 1, e, e + 1} {
			h.Observe(time.Duration(v))
			obs = append(obs, v)
		}
	}
	le, cum, inf, count, _ = expoHistogram(t, r, "exact_seconds")
	for i, bound := range le {
		var want int64
		for _, v := range obs {
			if v <= bound {
				want++
			}
		}
		if cum[i] != want {
			t.Fatalf("bucket le=%dns holds %d, want exactly %d", bound, cum[i], want)
		}
	}
	if count != int64(len(obs)) || inf != count {
		t.Fatalf("count %d, +Inf %d, want both %d", count, inf, len(obs))
	}
	if top := cum[len(cum)-1]; top != count-1 {
		t.Fatalf("top bucket %d: the value past the top le must count in +Inf only (count %d)", top, count)
	}
}

// TestVecHandleIdentity asserts With returns the same cell for the same
// label values — the resolve-once contract hot paths rely on.
func TestVecHandleIdentity(t *testing.T) {
	v := NewCounterVec("tier")
	a, b := v.With("hag"), v.With("hag")
	if a != b {
		t.Fatal("With returned distinct cells for identical labels")
	}
	a.Inc()
	if v.With("hag").Value() != 1 {
		t.Fatal("increment lost across handles")
	}
	if v.With("other") == a {
		t.Fatal("distinct labels shared a cell")
	}
}

// TestRegistryGetOrCreate asserts re-registration returns the same
// metric, and kind mismatches panic.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "")
	c2 := r.Counter("x_total", "")
	if c1 != c2 {
		t.Fatal("re-registration returned a new counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestObservationAllocFree pins the acceptance criterion that hot-path
// observations allocate nothing.
func TestObservationAllocFree(t *testing.T) {
	c := &Counter{}
	g := &Gauge{}
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.Observe(time.Millisecond)
	}); n != 0 {
		t.Fatalf("observation allocated %v times per run, want 0", n)
	}
}

// TestInvalidNamesPanic pins name validation.
func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}
