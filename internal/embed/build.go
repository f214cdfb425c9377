package embed

import (
	"fmt"
	"sync/atomic"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// BuildResult is the output of one full table build: the table itself
// plus every node's fraud probability — the build's forward scores the
// final layer anyway, so a rebuild doubles as the periodic full-graph
// re-score and callers can feed Probs straight into the tier-3 cache.
type BuildResult struct {
	Table *Table
	Probs []float64
}

// Build runs one full-graph forward over the universe ids (strictly
// ascending snapshot node IDs, typically transaction-filtered; anything
// else is an error, since a repeated ID would alias two table rows) with
// the frozen, ids-aligned feature matrix x, capturing every stream's
// penultimate activations and cutting each node's aggregation star from
// the forward's batch (gnn.CutStars). The
// table's epoch is snap's: rows are valid for snap and any later
// snapshot whose deltas have been dirty-marked through Store.Flush.
// Build takes ownership of ids and x; the caller must not mutate them
// afterwards.
func Build(snap *graph.Snapshot, ids []graph.NodeID, x *tensor.Matrix, model gnn.Model, version int) (*BuildResult, error) {
	n := len(ids)
	if x.Rows != n {
		return nil, fmt.Errorf("embed: %d feature rows for %d universe nodes", x.Rows, n)
	}
	for i := 1; i < n; i++ {
		if ids[i-1] >= ids[i] {
			return nil, fmt.Errorf("embed: universe not strictly ascending at row %d (%d after %d)", i, ids[i], ids[i-1])
		}
	}
	widths, hops := model.EmbedSpec()
	t := newTable(version, model, widths, hops, time.Now(), ids, x)
	t.epoch.Store(snap.Epoch())

	b := gnn.FullBatch(snap, x, graph.FullOptions{Nodes: ids})
	defer b.Release()

	capture := make([]*tensor.Matrix, len(widths))
	for s, w := range widths {
		capture[s] = tensor.New(n, w)
	}
	probs := make([]float64, n)
	f := gnn.AcquireFwd[float64]()
	gnn.SigmoidScoresInto(probs, model.InferEmbed(f, b, capture).Data[:n])
	gnn.ReleaseFwd(f)

	// One header block per stream, not one heap header per row: Build
	// publishes into a fresh table, and Refresh stores fresh headers, so
	// no published header is ever written again.
	for s := range widths {
		hdrs := make([][]float64, n)
		for i := range hdrs {
			hdrs[i] = capture[s].Row(i)
			t.rows[s][i].Store(&hdrs[i])
		}
	}
	gnn.CutStars(model, b, nil, nil, func(r int, s *gnn.EmbedStar) { t.stars[r].Store(s) })

	return &BuildResult{Table: t, Probs: probs}, nil
}

// newTable allocates an empty table over the universe ids with frozen
// features x (both owned by the table afterwards): row and star
// pointers unset, nothing dirty.
func newTable(version int, model gnn.Model, widths []int, hops int, builtAt time.Time, ids []graph.NodeID, x *tensor.Matrix) *Table {
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
