// Package sweep executes compiled full-graph inference programs
// (gnn.SweepProgram) shard-parallel and layer-at-a-time — the
// Gather-Apply-Scatter schedule of InferTurbo-style engines. The graph's
// node rows are partitioned into contiguous shards balanced by incident
// edge count; one persistent worker goroutine owns each shard and runs
// every step of the program over its row range, with a barrier between
// steps so that layer k is complete for all nodes before any worker
// starts layer k+1. Per-node fraud probabilities stream out through an
// emit callback as soon as a shard's final rows are done, so beyond the
// program's ~two resident activation layers the engine holds only one
// score buffer per shard.
package sweep

import (
	"runtime"
	"sync"
	"time"

	"turbo/internal/gnn"
)

// MaxWorkers caps the shard fan-out, mirroring the graph store's 32
// lock-striped shards: past that, barrier latency dominates.
const MaxWorkers = 32

// Options tunes a sweep execution.
type Options struct {
	// Workers is the shard count; 0 selects min(GOMAXPROCS, MaxWorkers).
	Workers int
	// RowCost optionally weights the row partition (typically row
	// lengths, see EdgeCosts); nil splits rows evenly.
	RowCost []int
}

// Stats reports one sweep execution.
type Stats struct {
	Nodes   int
	Edges   int // entries of the aggregation matrices the model read (0 when Run is called directly)
	Steps   int
	Workers int
	Elapsed time.Duration
	// ShardCompute holds each worker's pure compute time (barrier waits
	// excluded): the spread is the shard-balance signal.
	ShardCompute []time.Duration
}

func (o Options) workers(rows int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// partition splits [0, n) into at most k contiguous ranges of roughly
// equal total cost, returning the k+1 boundaries.
func partition(n, k int, cost []int) []int {
	bounds := make([]int, 0, k+1)
	bounds = append(bounds, 0)
	if cost == nil {
		for s := 1; s <= k; s++ {
			bounds = append(bounds, s*n/k)
		}
		return bounds
	}
	var total int
	for _, c := range cost {
		total += c
	}
	var acc int
	next := 1
	for i := 0; i < n && next < k; i++ {
		acc += cost[i]
		// Close the shard once it reaches its proportional share; the
		// remaining rows rebalance over the remaining shards.
		if acc*k >= total*next {
			bounds = append(bounds, i+1)
			next++
		}
	}
	for len(bounds) < k+1 {
		bounds = append(bounds, n)
	}
	return bounds
}

// barrier is a reusable synchronization point for the fixed worker set.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n workers have arrived, then releases them.
func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// Run executes the program across shard workers and streams each
// shard's fraud probabilities through emit as soon as the final step
// finishes for that shard. emit(lo, hi, probs) receives rows [lo, hi);
// it is called concurrently from the workers with disjoint ranges and
// must not retain probs. A nil emit skips scoring (the caller reads
// prog.Logits). The caller owns prog and releases it afterwards.
func Run(prog *gnn.SweepProgram, opts Options, emit func(lo, hi int, probs []float64)) Stats {
	n := prog.NumNodes
	w := opts.workers(n)
	start := time.Now()
	st := Stats{Nodes: n, Steps: len(prog.Steps), Workers: w, ShardCompute: make([]time.Duration, w)}
	if n == 0 {
		st.Elapsed = time.Since(start)
		return st
	}
	bounds := partition(n, w, opts.RowCost)
	if w == 1 {
		f := gnn.AcquireFwd[float64]()
		for _, step := range prog.Steps {
			step.Run(f, 0, n)
		}
		st.ShardCompute[0] = time.Since(start)
		emitShard(prog, emit, 0, n)
		gnn.ReleaseFwd(f)
		st.Elapsed = time.Since(start)
		return st
	}
	bar := newBarrier(w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			f := gnn.AcquireFwd[float64]()
			defer gnn.ReleaseFwd(f)
			var compute time.Duration
			for _, step := range prog.Steps {
				t0 := time.Now()
				if lo < hi {
					step.Run(f, lo, hi)
				}
				compute += time.Since(t0)
				bar.wait()
			}
			t0 := time.Now()
			emitShard(prog, emit, lo, hi)
			st.ShardCompute[s] = compute + time.Since(t0)
		}(s, bounds[s], bounds[s+1])
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	return st
}

// emitShard converts the shard's logits through the shared serving
// sigmoid and hands them to emit.
func emitShard(prog *gnn.SweepProgram, emit func(lo, hi int, probs []float64), lo, hi int) {
	if emit == nil || lo >= hi {
		return
	}
	probs := make([]float64, hi-lo)
	gnn.SigmoidScoresInto(probs, prog.Logits.Data[lo:hi])
	emit(lo, hi, probs)
}

// EdgeCosts estimates per-row sweep cost from the aggregation matrices
// compiled on the batch (the model's, once BuildSweep has run): the row's
// entries across them plus a constant for the dense per-row work. The
// partition balances shard compute with this weighting.
func EdgeCosts(b *gnn.Batch) []int {
	cost := make([]int, b.NumNodes)
	for i := range cost {
		cost[i] = 4
	}
	for _, c := range b.Matrices() {
		for i := range cost {
			cost[i] += c.RowPtr[i+1] - c.RowPtr[i]
		}
	}
	return cost
}

// ScoresInto scores every node of the batch into out (length NumNodes)
// with a shard-parallel sweep of the model's program.
func ScoresInto(out []float64, m gnn.Model, b *gnn.Batch, opts Options) Stats {
	prog := m.BuildSweep(b)
	defer prog.Release()
	if opts.RowCost == nil {
		opts.RowCost = EdgeCosts(b)
	}
	st := Run(prog, opts, func(lo, hi int, probs []float64) {
		copy(out[lo:hi], probs)
	})
	for _, c := range b.Matrices() {
		st.Edges += c.NNZ()
	}
	return st
}

// Scores is ScoresInto with a freshly allocated result slice.
func Scores(m gnn.Model, b *gnn.Batch, opts Options) ([]float64, Stats) {
	out := make([]float64, b.NumNodes)
	st := ScoresInto(out, m, b, opts)
	return out, st
}
