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
// feature matrix) pair. Edge deltas mark the §III-A-affected
// neighborhood dirty before the snapshot carrying them is published
// (mark-before-publish, see Store.Flush), and serving refuses any
// target whose star references a dirty row — a stale-neighborhood
// score is never served silently. The incremental refresh repairs
// structural staleness exactly (re-embedding dirty balls from the
// frozen features); feature staleness is bounded by the periodic full
// rebuild, which re-fetches features.
//
// Serving cost: a target's final layer runs once per refresh
// generation. Its score is memoized on the row, stamped with the even
// refresh generation it was computed under; until a refresh republishes
// rows, every later hit re-checks the same guards (model, epoch,
// generation, clean star) and returns the memo.
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

// Table is one immutable-universe embedding table: penultimate
// activation rows per stream for a fixed, sorted node universe, plus
// per-node aggregation stars and the dirty bitmap. Row and star values
// are updated in place by the refresh loop through per-row atomic
// pointers; the universe, features, and model never change — a new
// universe means a new Table.
type Table struct {
	version int
	model   gnn.Model
	widths  []int
	hops    int
	builtAt time.Time
	epoch   atomic.Uint64 // earliest snapshot epoch the rows are valid for

	ids   []graph.NodeID // universe, sorted ascending
	index map[graph.NodeID]int32
	x     *tensor.Matrix // frozen normalized features, ids-aligned

	rows  [][]atomic.Pointer[[]float64] // [stream][row]
	stars []atomic.Pointer[gnn.EmbedStar]
	memo  []atomic.Pointer[scoreMemo] // [row]: last served score

	dirty      []atomic.Uint64 // bitmap over rows
	dirtyCount atomic.Int64
}

// scoreMemo is a served probability stamped with the even Store.writeGen
// it was computed under. Rows and stars change only inside a refresh's
// writeGen bracket and writeGen only grows, so a memo whose gen is the
// current even generation is bitwise what the final layer would compute
// now.
type scoreMemo struct {
	gen  uint64
	prob float64
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

// BuiltAt returns when the table's rows were computed.
func (t *Table) BuiltAt() time.Time { return t.builtAt }

// Epoch returns the earliest snapshot epoch the rows are valid for.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

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

// markRow sets row r's dirty bit and reports whether it was newly set.
func (t *Table) markRow(r int32) bool {
	w := &t.dirty[r>>6]
	bit := uint64(1) << (uint(r) & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			t.dirtyCount.Add(1)
			return true
		}
	}
}

// clearRow clears row r's dirty bit.
func (t *Table) clearRow(r int32) {
	w := &t.dirty[r>>6]
	bit := uint64(1) << (uint(r) & 63)
	for {
		old := w.Load()
		if old&bit == 0 {
			return
		}
		if w.CompareAndSwap(old, old&^bit) {
			t.dirtyCount.Add(-1)
			return
		}
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

// AgeSeconds returns seconds since the rows were built, or -1 for a nil
// table (the gauge convention on /metrics).
func (t *Table) AgeSeconds() float64 {
	if t == nil {
		return -1
	}
	return math.Max(0, time.Since(t.builtAt).Seconds())
}
