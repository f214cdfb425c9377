package gnn

import (
	"fmt"
	"math"

	"turbo/internal/tensor"
)

// sweep.go compiles models into layer-at-a-time full-graph programs —
// the Gather-Apply-Scatter formulation InferTurbo-style engines use.
// Instead of one forward pass per audited node over a sampled subgraph,
// a SweepProgram computes layer k for *every* node before layer k+1:
// each step is a row-partitionable kernel over global activation
// matrices, and the executor (internal/sweep) runs the row ranges on one
// worker per shard with a barrier between steps. Barriers are what make
// the decomposition correct — an aggregation step may read any row of
// its input, so the previous step must have finished everywhere.
//
// Equivalence contract: a Spec's steps call the model's own Layer and
// Readout on each row range (see spec.go), and Infer is that same row-range
// forward over [0, n); GAT's steps run the per-row arithmetic of its
// Infer kernels. So a completed program's Logits match Infer and the tape
// forward on the same Batch bitwise, and the per-node Score path to
// ≤1e-12 (subgraph-local index order can permute within-row summation).

// SweepStep is one barrier-separated stage of a sweep: Run computes
// output rows [lo, hi) and may read any row of matrices produced by
// earlier steps, but must write only state owned by its row range.
type SweepStep struct {
	Name string
	Run  func(f *Fwd, lo, hi int)
}

// SweepProgram is a compiled layer-at-a-time forward over one Batch.
// Activation buffers come from the tensor pool and are recycled across
// steps with build-time liveness (alloc/retire), so only about two
// layers of activations are resident however deep the model is. After
// the final step, Logits holds every node's fraud logit. Release the
// program when the logits have been consumed.
type SweepProgram struct {
	NumNodes int
	Steps    []SweepStep
	// Logits is the NumNodes×1 output of the final step.
	Logits *tensor.Matrix

	free  map[[2]int][]*tensor.Matrix
	owned []*tensor.Matrix
}

// SweepInferer is an Inferer that can compile itself into a sweep. The
// program must only reference b and the model's parameters; it is run
// after BuildSweep returns, possibly concurrently across row ranges.
type SweepInferer interface {
	Inferer
	BuildSweep(b *Batch) *SweepProgram
}

// CanSweep reports whether m compiles to a full-graph sweep.
func CanSweep(m Model) bool {
	_, ok := m.(SweepInferer)
	return ok
}

// BuildSweepFor compiles m's sweep program over b, or reports false for
// models without a sweep decomposition.
func BuildSweepFor(m Model, b *Batch) (*SweepProgram, bool) {
	si, ok := m.(SweepInferer)
	if !ok {
		return nil, false
	}
	return si.BuildSweep(b), true
}

// newSweepProgram starts an empty program over n nodes.
func newSweepProgram(n int) *SweepProgram {
	return &SweepProgram{NumNodes: n, free: make(map[[2]int][]*tensor.Matrix)}
}

// step appends a barrier-separated stage.
func (p *SweepProgram) step(name string, run func(f *Fwd, lo, hi int)) {
	p.Steps = append(p.Steps, SweepStep{Name: name, Run: run})
}

// rowStep appends a stage whose run computes its rows on f's scratch. The
// scratch is handed back when the run returns, so the next step reuses
// it instead of stacking its own on top; and a strict sub-range — one
// shard of a parallel sweep — runs its dense kernels serially, since the
// other shards' workers already occupy the remaining cores.
func (p *SweepProgram) rowStep(name string, run func(f *Fwd, lo, hi int)) {
	p.step(name, func(f *Fwd, lo, hi int) {
		used := f.used
		f.serial = hi-lo < p.NumNodes
		run(f, lo, hi)
		f.used, f.serial = used, false
	})
}

// alloc returns a rows×cols activation buffer, recycling a retired one
// of the same shape when available. Recycled buffers hold a dead earlier
// step's run-time values, so every step must overwrite or clear the row
// range it writes (see clearRows).
func (p *SweepProgram) alloc(rows, cols int) *tensor.Matrix {
	k := [2]int{rows, cols}
	if l := p.free[k]; len(l) > 0 {
		m := l[len(l)-1]
		p.free[k] = l[:len(l)-1]
		return m
	}
	m := tensor.GetMatrix(rows, cols)
	p.owned = append(p.owned, m)
	return m
}

// retire marks buffers dead for recycling. Call at build time, after
// appending the last step that reads the buffer: a later step's output
// may then share its storage, which is safe at run time because steps
// execute strictly in order with barriers. Never retire b.X — the
// program does not own it.
func (p *SweepProgram) retire(ms ...*tensor.Matrix) {
	for _, m := range ms {
		k := [2]int{m.Rows, m.Cols}
		p.free[k] = append(p.free[k], m)
	}
}

// Release returns every owned buffer (including Logits) to the tensor
// pool. The program must not be run or read afterwards.
func (p *SweepProgram) Release() {
	for _, m := range p.owned {
		tensor.PutMatrix(m)
	}
	p.owned, p.free, p.Logits, p.Steps = nil, nil, nil, nil
}

// RunSerial executes the program on a single goroutine — the reference
// executor the parallel engine is tested against, and a convenient way
// to run a program without pulling in internal/sweep.
func (p *SweepProgram) RunSerial(f *Fwd) *tensor.Matrix {
	for _, st := range p.Steps {
		st.Run(f, 0, p.NumNodes)
	}
	return p.Logits
}

// clearRows zeroes rows [lo, hi) of m: accumulate-style kernels require
// zeroed destinations, and recycled sweep buffers arrive dirty.
func clearRows(m *tensor.Matrix, lo, hi int) {
	clear(m.Data[lo*m.Cols : hi*m.Cols])
}

// copyRows copies rows [lo, hi) of src into dst (same Cols). Sweep steps
// use it to capture their input into a caller-owned buffer: the barrier
// before the step guarantees the rows are final, and writing only the
// step's own row range keeps the step row-partitionable.
func copyRows(dst, src *tensor.Matrix, lo, hi int) {
	copy(dst.Data[lo*dst.Cols:hi*dst.Cols], src.Data[lo*src.Cols:hi*src.Cols])
}

// putRows writes the block into dst's rows starting at lo.
func putRows(dst *tensor.Matrix, lo int, block *tensor.Matrix) {
	copy(dst.Data[lo*dst.Cols:], block.Data)
}

// appendReadout appends the readout over the final rows hs as one
// row-wise step and sets Logits, retiring hs (except x, which the
// program does not own).
func (p *SweepProgram) appendReadout(readout func(f *Fwd, hs []*tensor.Matrix) *tensor.Matrix, hs []*tensor.Matrix, x *tensor.Matrix) {
	logits := p.alloc(p.NumNodes, 1)
	p.rowStep("readout", func(f *Fwd, lo, hi int) {
		rows := f.stackRows(len(hs))
		for i, h := range hs {
			rows[i] = h.RowsView(lo, hi)
		}
		putRows(logits, lo, readout(f, rows))
	})
	for _, h := range hs {
		if h != x {
			p.retire(h)
		}
	}
	p.Logits = logits
}

// BuildSweep implements SweepInferer for GAT. Each layer compiles to two
// steps. Projection: per head, wh = h×W and the node-level attention
// scores s = wh×att (rowwise). Attention: for each destination row, the
// incident edges' scores, LeakyReLU, segment softmax and α-weighted
// aggregation — every edge belongs to exactly one destination segment,
// so partitioning by destination rows partitions the edges, and the
// per-edge/per-segment arithmetic replicates Infer's SegmentSoftmax and
// scatter matmul exactly. Heads aggregate directly into their column
// block of the concatenated output.
func (m *GAT) BuildSweep(b *Batch) *SweepProgram { return m.buildSweep(b, nil) }

// buildSweep is BuildSweep with optional penultimate capture: when
// capture is non-nil, the last layer's projection step — the step that
// reads h^{L-1} — first copies its input rows into the caller-owned
// buffer, free of extra barriers.
func (m *GAT) buildSweep(b *Batch, capture *tensor.Matrix) *SweepProgram {
	st := b.gatStruct()
	p := newSweepProgram(b.NumNodes)
	n := b.NumNodes
	nE := len(st.src)
	h := b.X
	for li, layer := range m.layers {
		in, layer := h, layer
		var cp *tensor.Matrix
		if li == len(m.layers)-1 {
			cp = capture
		}
		heads := layer.heads
		headCols := heads[0].w.Value.Cols
		whs := make([]*tensor.Matrix, len(heads))
		sSrcs := make([]*tensor.Matrix, len(heads))
		sDsts := make([]*tensor.Matrix, len(heads))
		for k := range heads {
			whs[k] = p.alloc(n, headCols)
			sSrcs[k] = p.alloc(n, 1)
			sDsts[k] = p.alloc(n, 1)
		}
		score := p.alloc(nE, 1)
		alpha := p.alloc(nE, 1)
		out := p.alloc(n, headCols*len(heads))
		p.step(fmt.Sprintf("gat.l%d.proj", li), func(f *Fwd, lo, hi int) {
			if cp != nil {
				copyRows(cp, in, lo, hi)
			}
			for k, hd := range heads {
				clearRows(whs[k], lo, hi)
				tensor.MatMulRangeInto(whs[k], in, hd.w.Value, lo, hi)
				clearRows(sSrcs[k], lo, hi)
				tensor.MatMulRangeInto(sSrcs[k], whs[k], hd.attSrc.Value, lo, hi)
				clearRows(sDsts[k], lo, hi)
				tensor.MatMulRangeInto(sDsts[k], whs[k], hd.attDst.Value, lo, hi)
			}
		})
		p.step(fmt.Sprintf("gat.l%d.attn", li), func(f *Fwd, lo, hi int) {
			for k := range heads {
				wh, sSrc, sDst := whs[k], sSrcs[k], sDsts[k]
				off := k * headCols
				for i := lo; i < hi; i++ {
					seg := st.segments[i]
					mx := math.Inf(-1)
					for _, e := range seg {
						s := sSrc.Data[st.src[e]] + sDst.Data[st.dst[e]]
						if s <= 0 {
							s *= 0.2
						}
						score.Data[e] = s
						if s > mx {
							mx = s
						}
					}
					var sum float64
					for _, e := range seg {
						x := math.Exp(score.Data[e] - mx)
						alpha.Data[e] = x
						sum += x
					}
					if sum != 0 {
						for _, e := range seg {
							alpha.Data[e] /= sum
						}
					}
					drow := out.Data[i*out.Cols+off : i*out.Cols+off+headCols]
					clear(drow)
					for pp := st.scatter.RowPtr[i]; pp < st.scatter.RowPtr[i+1]; pp++ {
						w := alpha.Data[st.scatter.ColIdx[pp]]
						src := wh.Row(st.nodeCol[pp])
						for j, v := range src {
							drow[j] += w * v
						}
					}
				}
			}
			tensor.ReLUInPlace(out.RowsView(lo, hi))
		})
		p.retire(score, alpha)
		for k := range heads {
			p.retire(whs[k], sSrcs[k], sDsts[k])
		}
		if in != b.X {
			p.retire(in)
		}
		h = out
	}
	p.appendReadout(headReadout(m.head), []*tensor.Matrix{h}, b.X)
	return p
}
