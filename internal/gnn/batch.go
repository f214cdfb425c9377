// Package gnn provides the inductive GNN substrate shared by HAG and the
// GNN baselines: compiled computation batches over sampled subgraphs,
// the GCN / GraphSAGE / GAT reference models of §VI-A, and a common
// full-graph trainer.
package gnn

import (
	"errors"
	"sort"
	"sync"

	"turbo/internal/autodiff"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// Batch is a computation subgraph compiled for model forward passes:
// node features plus cached adjacency structures in several of the
// normalizations the models need. Adjacency structures are compiled
// lazily under an internal lock the first time a model asks for them, so
// a serving batch only pays for the normalizations its model actually
// uses; concurrent scoring over one Batch is safe. A Batch must not be
// copied by value.
//
// Batches on the audit hot path may borrow their CSR buffers from the
// tensor pools; Release returns them. Training code never calls Release
// and keeps batches alive across epochs as before.
type Batch struct {
	NumNodes   int
	X          *tensor.Matrix      // NumNodes × F node features
	TypedEdges [][]graph.LocalEdge // directed edges per type (both directions present)
	// Depth is graph.Subgraph.Layers: positive when the sample was cut to
	// node 0's computation cone for a model of that many layers, and then
	// only node 0's score means anything, and only under a model no
	// deeper (see admits). 0 is a full sample.
	Depth int

	mu           sync.Mutex        // guards every lazy field below
	merged       []graph.LocalEdge // all types summed per (src,dst), sorted
	mergedBuilt  bool
	mergedRW     *autodiff.CSR // unweighted random-walk norm incl self (GCN)
	mergedMean   *autodiff.CSR // unweighted neighbor mean, no self (SAGE)
	mergedWeight *autodiff.CSR // weighted neighbor mean (CFO(-) SAO stream)
	typedMean    []*autodiff.CSR
	gat          *gatStructure // GAT edge bookkeeping

	// float32 serving caches: quantized features and CSR mirrors keyed by
	// the float64 structure they shadow, built lazily by the Infer32 path.
	x32       *tensor.Matrix32
	csr32     map[*autodiff.CSR]*tensor.CSR32
	nodeCol32 []int32 // gatStructure.nodeCol as int32

	pooledInts    [][]int     // buffers borrowed from the tensor pools,
	pooledFloats  [][]float64 // returned by Release
	pooledInts32  [][]int32
	pooledFloat32 [][]float32
	pooledMat32   []*tensor.Matrix32
}

// NewBatch compiles a subgraph and its node feature matrix. Adjacency
// compilation is deferred until a model requests a normalization.
func NewBatch(sg *graph.Subgraph, x *tensor.Matrix) *Batch {
	if x.Rows != sg.NumNodes() {
		panic("gnn: feature rows do not match subgraph nodes")
	}
	return &Batch{NumNodes: sg.NumNodes(), X: x, TypedEdges: sg.TypedEdges, Depth: sg.Layers}
}

// Depth returns the number of message-passing layers of m — the Layers
// to sample with for m to score the target — or 0 when m does not
// declare it, which samples in full.
func Depth(m Model) int {
	if es, ok := m.(EmbedServing); ok {
		_, layers := es.EmbedSpec()
		return layers
	}
	return 0
}

// ErrShallowSample reports a batch cut for a shallower model than the
// one asked to score it: the model would read rows whose in-edges the
// sampler dropped.
var ErrShallowSample = errors.New("gnn: sample was cut for a shallower model")

// admits reports whether m may score node 0 of b: always on a full
// sample, on a cut one only when m declares a depth within the cut's.
func (b *Batch) admits(m Model) bool {
	if b.Depth == 0 {
		return true
	}
	d := Depth(m)
	return d > 0 && d <= b.Depth
}

// mergeEdges sums weights of parallel edges across types. The result is
// sorted by (src, dst) so batch compilation is deterministic: the map
// iteration the previous implementation relied on leaked random edge
// order into the CSR layout, and with it run-to-run float drift in the
// row normalizations. Duplicate (src, dst) weights are summed in input
// order (the sort is stable), matching the old accumulator.
func mergeEdges(typed [][]graph.LocalEdge) []graph.LocalEdge {
	var total int
	for _, es := range typed {
		total += len(es)
	}
	if total == 0 {
		return nil
	}
	all := make([]graph.LocalEdge, 0, total)
	for _, es := range typed {
		all = append(all, es...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Src != all[j].Src {
			return all[i].Src < all[j].Src
		}
		return all[i].Dst < all[j].Dst
	})
	out := all[:1]
	for _, e := range all[1:] {
		last := &out[len(out)-1]
		if e.Src == last.Src && e.Dst == last.Dst {
			last.Weight += e.Weight
		} else {
			out = append(out, e)
		}
	}
	return out
}

// MergedEdges returns the type-merged directed edge list, sorted by
// (src, dst).
func (b *Batch) MergedEdges() []graph.LocalEdge {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mergedEdgesLocked()
}

func (b *Batch) mergedEdgesLocked() []graph.LocalEdge {
	if !b.mergedBuilt {
		b.merged = mergeEdges(b.TypedEdges)
		b.mergedBuilt = true
	}
	return b.merged
}

// getInts borrows a pooled int slice and registers it for Release.
// Callers must hold b.mu.
func (b *Batch) getInts(n int) []int {
	s := tensor.GetInts(n)
	b.pooledInts = append(b.pooledInts, s)
	return s
}

// getFloats borrows a pooled float slice and registers it for Release.
// Callers must hold b.mu.
func (b *Batch) getFloats(n int) []float64 {
	s := tensor.GetFloats(n)
	b.pooledFloats = append(b.pooledFloats, s)
	return s
}

// Release returns the batch's pooled CSR buffers to the tensor pools and
// drops the compiled caches. The caller owns X (it is never pooled
// here). The batch must not be used for scoring afterwards.
func (b *Batch) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.pooledInts {
		tensor.PutInts(s)
	}
	for _, s := range b.pooledFloats {
		tensor.PutFloats(s)
	}
	for _, s := range b.pooledInts32 {
		tensor.PutInts32(s)
	}
	for _, s := range b.pooledFloat32 {
		tensor.PutFloats32(s)
	}
	for _, m := range b.pooledMat32 {
		tensor.PutMatrix32(m)
	}
	b.pooledInts, b.pooledFloats = nil, nil
	b.pooledInts32, b.pooledFloat32, b.pooledMat32 = nil, nil, nil
	b.merged, b.mergedBuilt = nil, false
	b.mergedRW, b.mergedMean, b.mergedWeight = nil, nil, nil
	b.typedMean, b.gat = nil, nil
	b.x32, b.csr32, b.nodeCol32 = nil, nil, nil
}

// X32 returns the batch features quantized to float32, built on first
// use from pooled storage.
func (b *Batch) X32() *tensor.Matrix32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.x32 == nil {
		b.x32 = tensor.GetMatrix32(b.X.Rows, b.X.Cols)
		b.pooledMat32 = append(b.pooledMat32, b.x32)
		tensor.QuantizeInto(b.x32, b.X)
	}
	return b.x32
}

// CSR32For returns the float32 mirror of a CSR obtained from this batch
// (MergedRWCSR, TypedMeanCSR, …), converting and caching it on first
// use. RowPtr is shared with the float64 structure; column indices and
// weights come from pooled storage returned by Release.
func (b *Batch) CSR32For(c *autodiff.CSR) *tensor.CSR32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.csr32 == nil {
		b.csr32 = make(map[*autodiff.CSR]*tensor.CSR32)
	}
	if q := b.csr32[c]; q != nil {
		return q
	}
	ci := tensor.GetInts32(len(c.ColIdx))
	b.pooledInts32 = append(b.pooledInts32, ci)
	for i, v := range c.ColIdx {
		ci[i] = int32(v)
	}
	ws := tensor.GetFloats32(len(c.Weights))
	b.pooledFloat32 = append(b.pooledFloat32, ws)
	for i, v := range c.Weights {
		ws[i] = float32(v)
	}
	q := &tensor.CSR32{NRows: c.NRows, NCols: c.NCols, RowPtr: c.RowPtr, ColIdx: ci, Weights: ws}
	b.csr32[c] = q
	return q
}

// gatNodeCol32 returns st.nodeCol widened to the int32 column type of
// the f32 CSR kernels.
func (b *Batch) gatNodeCol32(st *gatStructure) []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nodeCol32 == nil {
		b.nodeCol32 = tensor.GetInts32(len(st.nodeCol))
		b.pooledInts32 = append(b.pooledInts32, b.nodeCol32)
		for i, v := range st.nodeCol {
			b.nodeCol32[i] = int32(v)
		}
	}
	return b.nodeCol32
}

// normMode selects the row normalization of an aggregation matrix.
type normMode int

const (
	normNone  normMode = iota
	normSum            // rows sum to 1 (a weighted average)
	normCount          // rows divided by the neighbor count (Eq. 6):
	// relative weights AND absolute magnitude survive, so burst-heavy
	// edges contribute larger neighborhood vectors.
)

// buildCSR assembles a dst-indexed aggregation matrix A (out = A·H means
// out[dst] = Σ_src A[dst,src]·H[src]) from directed edges, with optional
// self loops. unweighted replaces edge weights with 1 (Eqs. 1–2 do not
// use BN edge weights; Eq. 6 does). The flat arrays come from the tensor
// pools (registered for Release); entries land in a counting sort that
// reproduces the append order of the old per-row build exactly — edges
// in input order, then the self-loop — so normalization sums round
// identically. Callers must hold b.mu.
func (b *Batch) buildCSR(edges []graph.LocalEdge, selfLoop bool, norm normMode, unweighted bool) *autodiff.CSR {
	n := b.NumNodes
	nnz := len(edges)
	if selfLoop {
		nnz += n
	}
	rowPtr := b.getInts(n + 1)
	colIdx := b.getInts(nnz)
	weights := b.getFloats(nnz)
	next := tensor.GetInts(n)
	for _, e := range edges {
		next[e.Dst]++
	}
	sum := 0
	for i := 0; i < n; i++ {
		c := next[i]
		if selfLoop {
			c++
		}
		rowPtr[i] = sum
		next[i] = sum
		sum += c
	}
	rowPtr[n] = sum
	for _, e := range edges {
		p := next[e.Dst]
		next[e.Dst]++
		colIdx[p] = e.Src
		if unweighted {
			weights[p] = 1
		} else {
			weights[p] = e.Weight
		}
	}
	if selfLoop {
		for i := 0; i < n; i++ {
			p := next[i]
			next[i]++
			colIdx[p] = i
			weights[p] = 1
		}
	}
	tensor.PutInts(next)
	for i := 0; i < n; i++ {
		row := weights[rowPtr[i]:rowPtr[i+1]]
		var inv float64
		switch norm {
		case normSum:
			var s float64
			for _, w := range row {
				s += w
			}
			if s == 0 {
				continue
			}
			inv = 1 / s
		case normCount:
			if len(row) == 0 {
				continue
			}
			inv = 1 / float64(len(row))
		default:
			continue
		}
		for j := range row {
			row[j] *= inv
		}
	}
	return &autodiff.CSR{NRows: n, NCols: n, RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}
}

// MergedRWCSR returns the random-walk-normalized merged adjacency with
// self-loops, the aggregation of the paper's inductive GCN baseline
// (Eq. 1): an unweighted mean over Ñ(v), so nodes inside large cliques
// retain only a 1/|Ñ| share of themselves — the over-smoothing setting
// of Theorem 1.
func (b *Batch) MergedRWCSR() *autodiff.CSR {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mergedRW == nil {
		b.mergedRW = b.buildCSR(b.mergedEdgesLocked(), true, normSum, true)
	}
	return b.mergedRW
}

// MergedMeanCSR returns the unweighted neighbor mean without self-loops,
// the h_{N_v} aggregation of GraphSAGE (Eq. 2).
func (b *Batch) MergedMeanCSR() *autodiff.CSR {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mergedMean == nil {
		b.mergedMean = b.buildCSR(b.mergedEdgesLocked(), false, normSum, true)
	}
	return b.mergedMean
}

// TypedMeanCSR returns the per-type Eq. 6 aggregation on the homogeneous
// subgraph of edge type t. Unlike Eqs. 1–2 this keeps the BN edge
// weights, so HAG exploits the certainty signal of the inverse weight
// assignment and hierarchical windows. We normalize by the weight sum (a
// weighted average) rather than Eq. 6's literal 1/deg(v): the literal
// form additionally preserves absolute weight magnitude but destabilized
// training in our reduced configuration (normCount keeps it available).
func (b *Batch) TypedMeanCSR(t int) *autodiff.CSR {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.typedMean == nil {
		b.typedMean = make([]*autodiff.CSR, len(b.TypedEdges))
	}
	if b.typedMean[t] == nil {
		b.typedMean[t] = b.buildCSR(b.TypedEdges[t], false, normSum, false)
	}
	return b.typedMean[t]
}

// MergedWeightedMeanCSR returns the weighted neighbor mean over the
// type-merged graph (Eq. 6 collapsed across types), which the CFO(-)
// ablation's single SAO stream aggregates with.
func (b *Batch) MergedWeightedMeanCSR() *autodiff.CSR {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mergedWeight == nil {
		b.mergedWeight = b.buildCSR(b.mergedEdgesLocked(), false, normSum, false)
	}
	return b.mergedWeight
}

// NumEdgeTypes returns the number of edge types in the batch.
func (b *Batch) NumEdgeTypes() int { return len(b.TypedEdges) }
