package gnn

import "turbo/internal/tensor"

// embed.go is the model half of the lambda-tier embedding split: batch
// forwards (InferEmbed) precompute every node's penultimate-layer
// activations (the input of the last graph layer), and serving
// recomputes only the last layer plus the head for one target from those
// cached rows. Only the last layer reads other rows of its input —
// exactly the observation behind InferTarget — so freezing h^{L-1} turns
// a full multi-hop forward into one aggregation row, one dense layer,
// and the MLP head.
//
// Equivalence contract: a serving star has no writer of its own.
// CutStars copies the target's row of each stack's aggregation matrix
// out of the batch the capturing forward compiled — the columns the
// snapshot's row writer put there and the values finishCSR normalized —
// relabelled to a gathered block of embedding rows. InferFinal runs the
// model's last Layer on that row with the full forward's own row kernels
// (aggregate), then the Readout. The dense kernels are row-independent,
// so a star's score is bitwise the full forward's on the same snapshot
// and the same penultimate rows.

// EmbedStar is the one-hop aggregation neighbourhood of one target node,
// cut from a full-graph batch over an embedding table's universe. Gather
// lists the universe rows whose embeddings the final layer reads,
// Gather[0] the target. Stack s's aggregation row is
// Cols[RowPtr[s]:RowPtr[s+1]], each a position in Gather, with the
// batch's normalized Weights alongside, so serving gathers one dense
// block and never remaps indices.
type EmbedStar struct {
	Gather  []int32
	RowPtr  []int
	Cols    []int32
	Weights []float64
}

// CutStars cuts the serving star of each row of b in rows (nil: every
// row) from the aggregation matrices m's stacks read, and hands rows[k]'s
// star to put(k, ·). uni maps a column of b to its universe row (nil:
// the identity, for a batch over the universe itself); every universe
// neighbour of a cut row must be a node of b. The rows are split across
// cores on the tensor pool, so put runs on several goroutines, once per
// k.
func CutStars(m Model, b *Batch, rows []int, uni []int32, put func(k int, s *EmbedStar)) {
	stacks := m.specs().F64.Stacks
	mats := make([]*tensor.CSR[float64], len(stacks))
	for i := range stacks {
		mats[i] = b.CSR(stacks[i].Agg)
	}
	n := len(rows)
	if rows == nil {
		n = b.NumNodes
	}
	tensor.ParallelRows(n, n*starWork, func(lo, hi int) {
		local := make([]int32, b.NumNodes)
		for k := lo; k < hi; k++ {
			r := k
			if rows != nil {
				r = rows[k]
			}
			put(k, cutStar(mats, r, uni, local))
		}
	})
}

// starWork is one star's cut in tensor.ParallelRows' operation units,
// whose threshold of 2^15 is ≈20 µs: a full-HAG star of a degree-8 world
// cuts in ≈0.5 µs (BenchmarkCompileStars, 2-core Xeon).
const starWork = 1 << 10

// cutStar copies row r of each matrix in mats into a star. local maps a
// column of the batch to its gathered position; it is zero on entry and
// on return.
func cutStar(mats []*tensor.CSR[float64], r int, uni []int32, local []int32) *EmbedStar {
	universe := func(j int32) int32 {
		if uni == nil {
			return j
		}
		return uni[j]
	}
	nnz, nGather := 0, int32(1)
	for _, a := range mats {
		for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
			if int(j) != r && local[j] == 0 {
				local[j] = nGather
				nGather++
			}
		}
		nnz += a.RowPtr[r+1] - a.RowPtr[r]
	}
	ints := make([]int32, int(nGather)+nnz)
	s := &EmbedStar{
		Gather:  ints[:nGather:nGather],
		RowPtr:  make([]int, len(mats)+1),
		Cols:    ints[nGather:],
		Weights: make([]float64, 0, nnz),
	}
	s.Gather[0] = universe(int32(r))
	for i, a := range mats {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		p := s.RowPtr[i]
		for e, j := range a.ColIdx[lo:hi] {
			if int(j) != r {
				s.Cols[p+e] = local[j]
				s.Gather[local[j]] = universe(j)
			}
		}
		s.Weights = append(s.Weights, a.Weights[lo:hi]...)
		s.RowPtr[i+1] = p + hi - lo
	}
	for _, a := range mats {
		for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
			local[j] = 0
		}
	}
	return s
}
