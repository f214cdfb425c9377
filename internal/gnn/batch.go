// Package gnn provides the inductive GNN substrate shared by HAG and the
// GNN baselines: compiled computation batches over sampled subgraphs,
// the GCN / GraphSAGE / GAT reference models of §VI-A, and a common
// full-graph trainer.
package gnn

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// Batch is a computation subgraph compiled for model forward passes:
// node features plus the aggregation matrices the models read (Agg),
// each with a float32 mirror that shares its row pointers and columns.
// FullBatch compiles a snapshot's node set with the snapshot's row
// writer and NewBatch a Subgraph's edge lists (the reference). Every compile runs under an internal lock, so
// concurrent scoring over one Batch is safe and compiles each matrix
// once: the full-graph forward compiles every matrix its model reads
// before its first step (compile; a FullBatch's in parallel, one task
// per matrix), the tape forward each one when it first asks (CSR).
// SampleCone compiles the audit path's cone with the same row writer,
// every matrix its model reads written up front. finishCSR normalizes
// the values every way.
// A Batch must not be copied by value. Release returns a serving batch's
// buffers; training code never calls it.
type Batch struct {
	NumNodes   int
	X          *tensor.Matrix      // NumNodes × F node features
	TypedEdges [][]graph.LocalEdge // directed edges per type (both directions present); nil from FullBatch and SampleCone
	// Depth is graph.Subgraph.Layers: positive when the sample was cut to
	// node 0's computation cone for a model of that many layers, and then
	// only node 0's score means anything, and only under a model no
	// deeper (see admits). 0 is a full sample.
	Depth int

	// FullBatch's source: each matrix is compiled from it on first use.
	snap *graph.Snapshot
	full graph.FullOptions

	mu   sync.Mutex       // guards every lazy field below
	aggs []compiled       // the aggregation matrices built so far
	gat  *gatStructure    // GAT edge bookkeeping
	x32  *tensor.Matrix32 // X quantized, by X32 or SetRow

	xBuf   tensor.Matrix   // X when SetRow sized it
	x32Buf tensor.Matrix32 // X's mirror
	lent   []func()        // returns the compiled arrays to their pools

	// SampleCone's arrays, kept warm in conePool with the batch: the
	// snapshot's raw matrices, normalized in place, and their mirrors'
	// weights.
	sampled bool
	forms   []graph.CSRForm
	cone    graph.ConeCSR
	mats32  []tensor.CSR[float32]
	w32     []float32
}

// compiled is an aggregation matrix and its mirror (nil until asked for).
type compiled struct {
	agg Agg
	csr *tensor.CSR[float64]
	q   *tensor.CSR[float32]
}

// NewBatch compiles a subgraph and its node feature matrix, nil to leave
// the features to SetRow. Each matrix is built when a model asks for it.
func NewBatch(sg *graph.Subgraph, x *tensor.Matrix) *Batch {
	if x != nil && x.Rows != sg.NumNodes() {
		panic("gnn: feature rows do not match subgraph nodes")
	}
	return &Batch{NumNodes: sg.NumNodes(), X: x, TypedEdges: sg.TypedEdges, Depth: sg.Layers}
}

// FullBatch compiles snap over opts.Nodes (nil: every node, in ID order)
// with its node feature matrix, nil to leave the features to SetRow. Like
// NewBatch, it compiles each matrix when a model first asks for it: the
// snapshot's row writer (Snapshot.FullCSR) writes its raw rows into
// pooled arrays (Release returns them) and finishCSR normalizes them.
// They are bitwise NewBatch's over graph.FullSubgraph with the same
// options.
func FullBatch(snap *graph.Snapshot, x *tensor.Matrix, opts graph.FullOptions) *Batch {
	n := len(opts.Nodes)
	if opts.Nodes == nil {
		n = snap.NumNodes()
	}
	if x != nil && x.Rows != n {
		panic("gnn: feature rows do not match batch nodes")
	}
	return &Batch{NumNodes: n, X: x, snap: snap, full: opts}
}

// conePool recycles SampleCone's batches with their arrays.
var conePool = sync.Pool{New: func() any { return &Batch{sampled: true} }}

// SampleCone draws target's sample from snap, cut to m's cone, straight
// into a batch: Snapshot.SampleCSR writes the raw rows of each matrix m
// reads, finishCSR normalizes them in place and mirror writes their
// float32 weights.
// They are bitwise NewBatch's over Snapshot.Sample. The features are left
// to SetRow. It also returns the sample's nodes, target first (valid
// until Release), and its typed edge count.
func SampleCone(snap *graph.Snapshot, target graph.NodeID, opts graph.SampleOptions, m Model) (*Batch, []graph.NodeID, int) {
	b := conePool.Get().(*Batch)
	stacks := m.specs().F64.Stacks
	b.forms = b.forms[:0]
	for _, st := range stacks {
		if !slices.ContainsFunc(b.aggs, func(c compiled) bool { return c.agg == st.Agg }) {
			t, selfLoop, _ := st.Agg.form()
			b.aggs = append(b.aggs, compiled{agg: st.Agg})
			b.forms = append(b.forms, graph.CSRForm{Type: t, SelfLoop: selfLoop})
		}
	}
	opts.Layers = stacks[0].layers()
	snap.SampleCSR(target, opts, b.forms, &b.cone)
	b.NumNodes, b.Depth = len(b.cone.Nodes), opts.Layers
	nnz := 0
	for _, c := range b.cone.Mats {
		nnz += len(c.ColIdx)
	}
	b.w32 = slices.Grow(b.w32[:0], nnz)[:nnz]
	b.mats32 = slices.Grow(b.mats32[:0], len(b.forms))[:len(b.forms)]
	for k, p := 0, 0; k < len(b.aggs); k++ {
		c, q := &b.cone.Mats[k], &b.mats32[k]
		_, _, unweighted := b.aggs[k].agg.form()
		finishCSR(c, unweighted)
		*q = mirror(c, b.w32[p:p+c.NNZ()])
		b.aggs[k].csr, b.aggs[k].q = c, q
		p += c.NNZ()
	}
	return b, b.cone.Nodes, b.cone.Edges
}

// SetRow writes node i's features into X and their float32 mirror into
// the matrix X32 returns, for a batch compiled without features: the
// audit path's gather fills it row by row. The first call sizes both.
func (b *Batch) SetRow(i int, vec []float64) {
	if b.X == nil {
		b.X = b.xBuf.Reshape(b.NumNodes, len(vec))
		b.x32 = b.x32Buf.Reshape(b.NumNodes, len(vec))
	}
	copy(b.X.Row(i), vec)
	tensor.QuantizeRow(b.x32.Row(i), vec)
}

// Depth returns the number of message-passing layers of m — the Layers
// to sample with for m to score the target.
func Depth(m Model) int { return m.specs().F64.Stacks[0].layers() }

// ErrShallowSample reports a batch cut for a shallower model than the
// one asked to score it: the model would read rows whose in-edges the
// sampler dropped.
var ErrShallowSample = errors.New("gnn: sample was cut for a shallower model")

// admits reports whether m may score node 0 of b: always on a full
// sample, on a cut one only when m is no deeper than the cut.
func (b *Batch) admits(m Model) bool {
	return b.Depth == 0 || Depth(m) <= b.Depth
}

// mergeEdges sums weights of parallel edges across types, in input order
// (the sort is stable). The result is sorted by (src, dst), so batch
// compilation is deterministic.
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

// getInts, getInts32 and getFloats borrow pooled slices that Release
// returns. Callers must hold b.mu.
func (b *Batch) getInts(n int) []int {
	s := tensor.GetInts(n)
	b.lent = append(b.lent, func() { tensor.PutInts(s) })
	return s
}

func (b *Batch) getInts32(n int) []int32 {
	s := tensor.GetInts32(n)
	b.lent = append(b.lent, func() { tensor.PutInts32(s) })
	return s
}

func (b *Batch) getFloats(n int) []float64 {
	s := tensor.GetFloats(n)
	b.lent = append(b.lent, func() { tensor.PutFloats(s) })
	return s
}

// Release returns the batch's pooled buffers and drops the compiled
// caches; a batch SampleCone compiled goes back to its pool whole. A
// caller-provided X is the caller's: it is never pooled here. The batch
// must not be used afterwards.
func (b *Batch) Release() {
	b.mu.Lock()
	if b.X == &b.xBuf {
		b.X = nil
	}
	b.x32, b.gat = nil, nil
	if b.sampled {
		b.aggs = b.aggs[:0]
		b.mu.Unlock()
		conePool.Put(b)
		return
	}
	defer b.mu.Unlock()
	for _, put := range b.lent {
		put()
	}
	tensor.PutFloats(b.xBuf.Data)
	tensor.PutFloats32(b.x32Buf.Data)
	b.aggs, b.lent, b.xBuf.Data, b.x32Buf.Data = nil, nil, nil, nil
}

// X32 returns the batch features quantized to float32, built on first
// use from pooled storage.
func (b *Batch) X32() *tensor.Matrix32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.x32 == nil {
		b.x32 = b.x32Buf.Reshape(b.X.Rows, b.X.Cols)
		tensor.QuantizeInto(b.x32, b.X)
	}
	return b.x32
}

// CSR32For returns the float32 mirror of a matrix CSR returned, writing
// its weights on first use into pooled storage. Its RowPtr and ColIdx
// are the float64 matrix's.
func (b *Batch) CSR32For(c *tensor.CSR[float64]) *tensor.CSR[float32] {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.aggs {
		e := &b.aggs[i]
		if e.csr != c {
			continue
		}
		if e.q == nil {
			w := tensor.GetFloats32(c.NNZ())
			b.lent = append(b.lent, func() { tensor.PutFloats32(w) })
			q := mirror(c, w)
			e.q = &q
		}
		return e.q
	}
	panic("gnn: CSR32For of a matrix the batch did not compile")
}

// finishCSR is the one writer of an aggregation matrix's values: it
// scales each row of c in place to sum to 1 (a weighted average;
// unweighted first sets every entry to 1), summing in entry order.
func finishCSR(c *tensor.CSR[float64], unweighted bool) {
	for i, lo := 0, c.RowPtr[0]; i < c.NRows; i++ {
		hi := c.RowPtr[i+1]
		row := c.Weights[lo:hi]
		if lo = hi; len(row) == 0 {
			continue
		}
		var s float64
		for j := range row {
			if unweighted {
				row[j] = 1
			}
			s += row[j]
		}
		if s != 0 {
			inv := 1 / s
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// mirror returns c's float32 mirror over w: c's own row pointers and
// columns, with w holding float32 of c's weights.
func mirror(c *tensor.CSR[float64], w []float32) tensor.CSR[float32] {
	tensor.QuantizeRow(w, c.Weights)
	return tensor.CSR[float32]{NRows: c.NRows, NCols: c.NCols, RowPtr: c.RowPtr, ColIdx: c.ColIdx, Weights: w}
}

// CSR returns the aggregation matrix a names, compiling it on first use.
func (b *Batch) CSR(a Agg) *tensor.CSR[float64] {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.aggs {
		if c.agg == a {
			return c.csr
		}
	}
	b.compileLocked([]Agg{a})
	return b.aggs[len(b.aggs)-1].csr
}

// compile compiles every matrix in aggs the batch lacks, holding b.mu
// once, so concurrent forwards over a fresh batch compile each matrix
// exactly once: a FullBatch's as one task per matrix, self-scheduled
// across cores on the tensor pool (Snapshot.FullCSR reads only the
// immutable snapshot), NewBatch's edge lists serially.
func (b *Batch) compile(aggs []Agg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.compileLocked(aggs)
}

// compileWork is one entry of a full-graph compile in
// tensor.ParallelRows' operation units: the row writer costs ≈100 ns
// per edge at 1k users, and the pool's threshold of 2^15 units is
// ≈20 µs.
const compileWork = 1 << 7

// compileLocked is compile with b.mu held.
func (b *Batch) compileLocked(aggs []Agg) {
	start := len(b.aggs)
	for _, a := range aggs {
		if !slices.ContainsFunc(b.aggs, func(c compiled) bool { return c.agg == a }) {
			if b.sampled {
				panic("gnn: a batch SampleCone compiled holds only its model's matrices")
			}
			b.aggs = append(b.aggs, compiled{agg: a})
		}
	}
	missing := b.aggs[start:]
	if b.snap == nil {
		for i := range missing {
			missing[i].csr = b.buildCSR(missing[i].agg)
		}
		return
	}
	// A matrix has a row per node, each with at most the snapshot's
	// mean degree of entries on average (a typed matrix has fewer).
	degree := 2 * b.snap.NumEdges() / max(b.snap.NumNodes(), 1)
	outs := make([]*graph.ConeCSR, len(missing))
	var next atomic.Int64
	eachLoop(len(missing), compileWork*len(missing)*b.NumNodes*(1+degree), func() {
		for k := int(next.Add(1)) - 1; k < len(missing); k = int(next.Add(1)) - 1 {
			outs[k] = fullPool.Get().(*graph.ConeCSR)
			missing[k].csr = b.fullCSR(missing[k].agg, outs[k])
		}
	})
	for _, out := range outs {
		b.lent = append(b.lent, func() { fullPool.Put(out) })
	}
}

// fullPool recycles the arrays FullBatch's matrices are written into.
var fullPool = sync.Pool{New: func() any { return new(graph.ConeCSR) }}

// fullCSR writes the matrix a names over a FullBatch's node set into out
// with the snapshot's row writer, then finishCSR.
func (b *Batch) fullCSR(a Agg, out *graph.ConeCSR) *tensor.CSR[float64] {
	t, selfLoop, unweighted := a.form()
	b.snap.FullCSR(b.full, []graph.CSRForm{{Type: t, SelfLoop: selfLoop}}, out)
	c := &out.Mats[0]
	finishCSR(c, unweighted)
	return c
}

// buildCSR assembles the dst-indexed matrix a names (out = A·H means
// out[dst] = Σ_src A[dst,src]·H[src]) from the edge lists, into pooled
// flat arrays registered for Release: a counting sort by destination
// that keeps the edges' input order within a row, then the self-loop if
// a has one, then finishCSR. Callers must hold b.mu.
func (b *Batch) buildCSR(a Agg) *tensor.CSR[float64] {
	t, selfLoop, unweighted := a.form()
	var es []graph.LocalEdge
	if t == graph.AllTypes {
		es = mergeEdges(b.TypedEdges)
	} else {
		es = b.TypedEdges[t]
	}
	n := b.NumNodes
	nnz := len(es)
	if selfLoop {
		nnz += n
	}
	rowPtr, colIdx, weights := b.getInts(n+1), b.getInts32(nnz), b.getFloats(nnz)
	next := tensor.GetInts(n)
	for _, e := range es {
		next[e.Dst]++
	}
	sum := 0
	for i := 0; i < n; i++ {
		c := next[i]
		if selfLoop {
			c++
		}
		rowPtr[i], next[i] = sum, sum
		sum += c
	}
	rowPtr[n] = sum
	for _, e := range es {
		p := next[e.Dst]
		next[e.Dst]++
		colIdx[p], weights[p] = int32(e.Src), e.Weight
	}
	if selfLoop {
		for i := 0; i < n; i++ {
			colIdx[next[i]], weights[next[i]] = int32(i), 1
		}
	}
	tensor.PutInts(next)
	c := &tensor.CSR[float64]{NRows: n, NCols: n, RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}
	finishCSR(c, unweighted)
	return c
}

// Matrices returns the aggregation matrices compiled so far, in the
// order they were first asked for.
func (b *Batch) Matrices() []*tensor.CSR[float64] {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*tensor.CSR[float64], len(b.aggs))
	for i, c := range b.aggs {
		out[i] = c.csr
	}
	return out
}

// TypedMeanCSR is CSR(TypedMean(t)).
func (b *Batch) TypedMeanCSR(t int) *tensor.CSR[float64] { return b.CSR(TypedMean(t)) }

// NumEdgeTypes returns the number of edge types in the batch.
func (b *Batch) NumEdgeTypes() int {
	if b.snap != nil {
		return b.snap.NumEdgeTypes()
	}
	return len(b.TypedEdges)
}
