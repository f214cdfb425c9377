package gnn

import (
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
// Equivalence contract: a Spec's steps call the model's own Project,
// Layer and Readout on each row range (see spec.go), and Infer is that
// same row-range forward over [0, n). So a completed program's Logits
// match Infer and the tape forward on the same Batch bitwise, and the per-node Score path to
// ≤1e-12 (subgraph-local index order can permute within-row summation).

// SweepStep is one barrier-separated stage of a sweep: Run computes
// output rows [lo, hi) and may read any row of matrices produced by
// earlier steps, but must write only state owned by its row range.
type SweepStep struct {
	Name string
	Run  func(f *Fwd[float64], lo, hi int)
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

// newSweepProgram starts an empty program over n nodes.
func newSweepProgram(n int) *SweepProgram {
	return &SweepProgram{NumNodes: n, free: make(map[[2]int][]*tensor.Matrix)}
}

// rowStep appends a barrier-separated stage whose run computes its rows on f's scratch. The
// scratch is handed back when the run returns, so the next step reuses
// it instead of stacking its own on top; and a strict sub-range — one
// shard of a parallel sweep — runs its dense kernels serially, since the
// other shards' workers already occupy the remaining cores.
func (p *SweepProgram) rowStep(name string, run func(f *Fwd[float64], lo, hi int)) {
	p.Steps = append(p.Steps, SweepStep{Name: name, Run: func(f *Fwd[float64], lo, hi int) {
		used := f.used
		f.serial = hi-lo < p.NumNodes
		run(f, lo, hi)
		f.used, f.serial = used, false
	}})
}

// alloc returns a rows×cols activation buffer, recycling a retired one
// of the same shape when available. Recycled buffers hold a dead earlier
// step's run-time values, so every step must overwrite the row range it
// writes.
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
func (p *SweepProgram) RunSerial(f *Fwd[float64]) *tensor.Matrix {
	for _, st := range p.Steps {
		st.Run(f, 0, p.NumNodes)
	}
	return p.Logits
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
func (p *SweepProgram) appendReadout(readout func(f *Fwd[float64], hs []*tensor.Matrix) *tensor.Matrix, hs []*tensor.Matrix, x *tensor.Matrix) {
	logits := p.alloc(p.NumNodes, 1)
	p.rowStep("readout", func(f *Fwd[float64], lo, hi int) {
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
