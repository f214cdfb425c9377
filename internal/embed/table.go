// Package embed implements the lambda-tier embedding store: a
// versioned table of penultimate-layer (h^{L-1}) activations for every
// node of a behavior-network snapshot, populated by the full-graph
// forward, invalidated incrementally by edge-delta dirty marking, and
// served through the model's final-layer-only scoring split
// (gnn.Model.InferFinal). The BRIGHT/lambda-architecture observation this
// encodes: only the last graph layer of a GNN reads other nodes' state,
// so freezing everything below it turns an audit from a multi-hop
// forward into one aggregation row plus a dense layer and the head.
//
// Consistency model: a table is a consistent (snapshot epoch, frozen
// feature matrix) pair, and its rows and stars never change once it is
// published. Edge deltas mark the §III-A-affected neighborhood dirty
// before the snapshot carrying them is published (mark-before-publish,
// see Store.Flush), and serving refuses any target whose star
// references a dirty row — a stale-neighborhood score is never served
// silently. The invariant: a published table carries a mark for every
// delta its snapshot lacks. Both ways to change the table keep it by
// one install protocol (Store.BeginRebuild, Store.Install): the full
// rebuild, which re-fetches features, and the incremental refresh,
// which re-embeds dirty balls from the frozen features into a new
// table. So structural staleness is repaired exactly, and feature
// staleness is bounded by the periodic rebuild.
//
// Serving cost: a target's final layer runs once per table. Its score
// is memoized on the row; every later hit re-checks the same guards
// (model, epoch, clean star) and returns the memo.
package embed

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// Table is one immutable embedding table: penultimate activation rows
// per stream for a fixed, sorted node universe, plus per-node
// aggregation stars, the dirty bitmap and the score memos. Rows, stars
// and epoch are written before the table is installed and never after;
// only the dirty bits and the memos change while it is live. A refresh
// is a new Table sharing the universe, index and frozen features.
type Table struct {
	version int
	model   gnn.Model
	widths  []int
	hops    int
	builtAt time.Time
	epoch   uint64 // the snapshot epoch the rows were computed on

	ids   []graph.NodeID // universe, sorted ascending
	index map[graph.NodeID]int32
	x     *tensor.Matrix // frozen normalized features, ids-aligned

	rows  [][][]float64 // [stream][row]
	stars []*gnn.EmbedStar
	memo  []atomic.Pointer[float64] // [row]: the row's served probability

	dirty      []atomic.Uint64 // bitmap over rows
	dirtyCount atomic.Int64
}

// Version returns the model artifact version the rows were computed
// with.
func (t *Table) Version() int { return t.version }

// Model returns the model identity the table serves for.
func (t *Table) Model() gnn.Model { return t.model }

// Hops returns the model's graph-layer count L.
func (t *Table) Hops() int { return t.hops }

// Radius returns the dirty-marking BFS radius max(1, L−1): a delta at
// (u,v) perturbs the §III-A weights of every edge incident to u or v
// (degree change), hence h^1 on ball({u,v}, 1), hence h^{L-1} on
// ball({u,v}, L−1); the aggregation star of a target changes only
// within ball({u,v}, 1). Refresh pads the dirty rows by the same radius,
// so its batch holds every row a dirty row's forward or star reads.
func (t *Table) Radius() int {
	if t.hops-1 > 1 {
		return t.hops - 1
	}
	return 1
}

// NumRows returns the universe size.
func (t *Table) NumRows() int { return len(t.ids) }

// BuiltAt returns when the table's features were fetched: the last full
// build's time, which a refresh keeps.
func (t *Table) BuiltAt() time.Time { return t.builtAt }

// Epoch returns the epoch of the snapshot the rows were computed on,
// the earliest one they are valid for.
func (t *Table) Epoch() uint64 { return t.epoch }

// DirtyCount returns the number of rows currently marked dirty.
func (t *Table) DirtyCount() int { return int(t.dirtyCount.Load()) }

// Row returns the universe row of node u, or -1.
func (t *Table) Row(u graph.NodeID) int32 {
	if r, ok := t.index[u]; ok {
		return r
	}
	return -1
}

// isDirty reports row r's dirty bit.
func (t *Table) isDirty(r int32) bool {
	return t.dirty[r>>6].Load()&(1<<(uint(r)&63)) != 0
}

// markRow sets row r's dirty bit. Only the holder of Store.mu marks, so
// a load and a store suffice; readers load the words atomically.
func (t *Table) markRow(r int32) {
	w := &t.dirty[r>>6]
	if old, bit := w.Load(), uint64(1)<<(uint(r)&63); old&bit == 0 {
		w.Store(old | bit)
		t.dirtyCount.Add(1)
	}
}

// dirtyRows collects the rows currently marked dirty, ascending.
func (t *Table) dirtyRows() []int32 {
	var out []int32
	for wi := range t.dirty {
		w := t.dirty[wi].Load()
		for w != 0 {
			out = append(out, int32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// AgeSeconds returns seconds since the features were fetched, or -1 for a nil
// table (the gauge convention on /metrics).
func (t *Table) AgeSeconds() float64 {
	if t == nil {
		return -1
	}
	return math.Max(0, time.Since(t.builtAt).Seconds())
}
