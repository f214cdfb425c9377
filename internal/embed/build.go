package embed

import (
	"fmt"
	"slices"
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
// the frozen, ids-aligned feature matrix x on snap, the snapshot
// Store.BeginRebuild hands back: it is the writer Table.embed over a new
// table whose every row is dirty. The table's epoch is snap's. Build
// takes ownership of ids and x; the caller must not mutate them
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
	t := &Table{
		version: version, model: model, widths: widths, hops: hops, builtAt: time.Now(),
		ids: ids, index: make(map[graph.NodeID]int32, n), x: x,
		rows:  make([][][]float64, len(widths)),
		stars: make([]*gnn.EmbedStar, n),
		memo:  make([]atomic.Pointer[float64], n),
		dirty: make([]atomic.Uint64, (n+63)/64),
	}
	every := make([]int32, n)
	for i, id := range ids {
		t.index[id] = int32(i)
		every[i] = int32(i)
	}
	for s := range widths {
		t.rows[s] = make([][]float64, n)
	}
	return &BuildResult{Table: t, Probs: t.embed(snap, nil, every)}, nil
}

// embed is the table's one row and star writer. It runs one capturing
// forward on snap with the frozen features over ball — ascending
// universe rows, or nil for the whole universe, whose ids and features
// the forward then reads in place — and writes the rows of dirty
// (ascending rows of ball) from the capture and their stars from the
// forward's batch (gnn.CutStars). The ball must hold every universe
// neighbour of each dirty row. embed stamps t with snap's epoch and
// returns the forward's probabilities, ball-aligned. t must not be
// published yet.
func (t *Table) embed(snap *graph.Snapshot, ball, dirty []int32) []float64 {
	ids, x := t.ids, t.x
	at := make([]int, len(dirty)) // each dirty row's ball position: its capture and batch row
	for i, r := range dirty {
		at[i] = int(r)
	}
	if ball != nil {
		ids = make([]graph.NodeID, len(ball))
		x = tensor.New(len(ball), t.x.Cols)
		for i, r := range ball {
			ids[i] = t.ids[r]
			copy(x.Row(i), t.x.Row(int(r)))
		}
		for i, r := range dirty {
			at[i], _ = slices.BinarySearch(ball, r)
		}
	}
	n := len(ids)
	b := gnn.FullBatch(snap, x, graph.FullOptions{Nodes: ids})
	defer b.Release()

	capture := make([]*tensor.Matrix, len(t.widths))
	for s, w := range t.widths {
		capture[s] = tensor.New(n, w)
	}
	probs := make([]float64, n)
	f := gnn.AcquireFwd[float64]()
	gnn.SigmoidScoresInto(probs, t.model.InferEmbed(f, b, capture).Data[:n])
	gnn.ReleaseFwd(f)

	for i, r := range dirty {
		for s := range t.rows {
			t.rows[s][r] = capture[s].Row(at[i])
		}
	}
	gnn.CutStars(t.model, b, at, ball, func(i int, s *gnn.EmbedStar) { t.stars[dirty[i]] = s })
	t.epoch = snap.Epoch()
	return probs
}
