package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of v by nearest
// rank, 0 for an empty slice. v is sorted in place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	rank := int(math.Ceil(p/100*float64(len(v)))) - 1
	if rank < 0 {
		rank = 0
	}
	return v[rank]
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// betterHalfRate cuts [t0, t0+d) into whole windows, dropping the rest,
// and returns the events per second of the better half of them (the
// one in the middle included); a d shorter than one window is the one
// window.
func betterHalfRate(at []time.Time, t0 time.Time, d, window time.Duration) float64 {
	counts := make([]float64, max(1, int(d/window)))
	window = min(window, d)
	for _, t := range at {
		if i := int(t.Sub(t0) / window); !t.Before(t0) && i < len(counts) {
			counts[i]++
		}
	}
	sort.Float64s(counts)
	return mean(counts[len(counts)/2:]) / window.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssWatch polls the process's resident set (VmRSS) every 50 ms and
// keeps the most it saw. The kernel's own high-water mark (VmHWM) is no
// use here: it is set by the benchmark's training of the model, before
// the system under test exists, and never comes down.
type rssWatch struct {
	stop chan struct{}
	peak chan float64
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		peak := rssMB()
		for {
			select {
			case <-w.stop:
				w.peak <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return w
}

// peakMB stops the watch and returns the highest reading.
func (w *rssWatch) peakMB() float64 {
	close(w.stop)
	return <-w.peak
}

// rssMB reads VmRSS from /proc/self/status, 0 where there is none.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// parseProm reads Prometheus text exposition into series → value, the
// series key being the sample name with its label set as printed.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// splitmix64 is the schedule hash: op i of a phase is a pure function
// of (seed, phase, i), so a seed fixes the whole request sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// zipfCDF draws 0-based ranks from Zipf(s) over n items by inverting
// the exact cumulative distribution; rank 0 is the hottest.
type zipfCDF []float64

func newZipfCDF(n int, s float64) zipfCDF {
	cdf := make(zipfCDF, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func (z zipfCDF) rank(u float64) int {
	r := sort.SearchFloat64s(z, u)
	if r >= len(z) {
		r = len(z) - 1
	}
	return r
}
