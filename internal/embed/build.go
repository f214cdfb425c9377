package embed

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/sweep"
	"turbo/internal/tensor"
)

// BuildResult is the output of one full table build: the table itself
// plus every node's fraud probability — the build sweep scores the
// final layer anyway, so a rebuild doubles as the periodic full-graph
// score sweep and callers can feed Probs straight into the tier-3
// cache.
type BuildResult struct {
	Table *Table
	Probs []float64
	Stats sweep.Stats
}

// Build runs one full embedding sweep over the universe ids (sorted
// snapshot node IDs, typically transaction-filtered) with the frozen,
// ids-aligned feature matrix x, capturing every stream's penultimate
// activations and compiling per-node aggregation stars. The table's
// epoch is snap's: rows are valid for snap and any later snapshot whose
// deltas have been dirty-marked through Store.Flush. Build takes
// ownership of ids and x; the caller must not mutate them afterwards.
func Build(snap *graph.Snapshot, ids []graph.NodeID, x *tensor.Matrix, model gnn.EmbedServing, version int, opts sweep.Options) (*BuildResult, error) {
	n := len(ids)
	if x.Rows != n {
		return nil, fmt.Errorf("embed: %d feature rows for %d universe nodes", x.Rows, n)
	}
	widths, hops := model.EmbedSpec()
	t := newTable(version, model, widths, hops, time.Now(), ids, x)
	t.epoch.Store(snap.Epoch())

	sg := graph.FullSubgraph(snap, graph.FullOptions{Nodes: ids})
	b := gnn.NewBatch(sg, x)
	defer b.Release()

	capture := make([]*tensor.Matrix, len(widths))
	for s, w := range widths {
		capture[s] = tensor.New(n, w)
	}
	prog := model.BuildEmbedSweep(b, capture)
	probs := make([]float64, n)
	stats := sweep.Run(prog, opts, func(lo, hi int, p []float64) {
		copy(probs[lo:hi], p)
	})
	prog.Release()

	for s := range widths {
		for i := 0; i < n; i++ {
			row := capture[s].Row(i)
			t.rows[s][i].Store(&row)
		}
	}
	t.compileStars(snap, opts.Workers)

	return &BuildResult{Table: t, Probs: probs, Stats: stats}, nil
}

// newTable allocates an empty table over the universe ids with frozen
// features x (both owned by the table afterwards): row and star
// pointers unset, nothing dirty.
func newTable(version int, model gnn.EmbedServing, widths []int, hops int, builtAt time.Time, ids []graph.NodeID, x *tensor.Matrix) *Table {
	n := len(ids)
	t := &Table{
		version: version,
		model:   model,
		widths:  widths,
		hops:    hops,
		builtAt: builtAt,
		ids:     ids,
		index:   make(map[graph.NodeID]int32, n),
		x:       x,
		rows:    make([][]atomic.Pointer[[]float64], len(widths)),
		stars:   make([]atomic.Pointer[gnn.EmbedStar], n),
		memo:    make([]atomic.Pointer[scoreMemo], n),
		dirty:   make([]atomic.Uint64, (n+63)/64),
	}
	for i, id := range ids {
		t.index[id] = int32(i)
	}
	for s := range widths {
		t.rows[s] = make([]atomic.Pointer[[]float64], n)
	}
	return t
}

// compileStars (re)builds every node's aggregation star against snap.
// Stars walk every node's neighborhood; shard across cores.
func (t *Table) compileStars(snap *graph.Snapshot, workers int) {
	n := len(t.ids)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				t.stars[r].Store(t.buildStar(snap, int32(r)))
			}
		}(lo, hi)
	}
	wg.Wait()
}
