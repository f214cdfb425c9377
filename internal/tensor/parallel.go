package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the flop count above which matrix kernels fan out
// across the worker pool; below it dispatch overhead dominates. The
// value is benchmarked, not guessed: handing a range to the pool costs
// ~1–2 µs round trip (BenchmarkParallelCrossover), and the serial kernels
// sustain roughly 1.5 Gflop/s, so work only amortizes the dispatch once
// it is tens of microseconds — 2^15 flops ≈ 20 µs. The old per-call
// goroutine-spawn path needed 2^18 before it broke even.
var parallelThreshold = 1 << 15

// task is one contiguous row range of a parallel kernel, executed by a
// pool worker.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolTasks chan task
)

// startPool spawns the persistent worker goroutines. Workers live for
// the process lifetime: the pool replaces the old per-call `go` spawn,
// whose goroutine creation + scheduling cost pushed the parallel
// crossover an order of magnitude higher than dispatch to an
// already-running worker.
func startPool() {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	poolTasks = make(chan task, 4*n)
	for w := 0; w < n; w++ {
		go func() {
			for t := range poolTasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// ParallelRows runs fn over [0, rows) split into contiguous ranges when
// work (an operation-count estimate) exceeds the parallel threshold, and
// serially otherwise. The serial short-circuit is exact: below the
// threshold fn is invoked once as fn(0, rows) on the calling goroutine.
// fn must only write state owned by its range.
func ParallelRows(rows, work int, fn func(lo, hi int)) {
	if work < parallelThreshold || rows <= 1 {
		fn(0, rows)
		return
	}
	parallelRows(rows, fn)
}

// parallelRows splits [0, rows) into contiguous ranges and runs fn on
// each range concurrently via the persistent worker pool. The calling
// goroutine keeps the first chunk for itself; if the pool's queue is
// full (e.g. nested parallel sections) excess chunks run inline, so the
// function can never deadlock. fn must only write state owned by its
// range.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	poolOnce.Do(startPool)
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		t := task{fn: fn, lo: lo, hi: hi, wg: &wg}
		select {
		case poolTasks <- t:
		default:
			fn(lo, hi)
			wg.Done()
		}
	}
	fn(0, chunk)
	wg.Wait()
}
