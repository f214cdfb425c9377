package embed

import (
	"math"

	"turbo/internal/gnn"
	"turbo/internal/graph"
)

// star.go compiles per-target aggregation stars: the incoming §III-A
// weighted edge rows of one node, restricted to the table universe,
// with weights bitwise-equal to the full-graph batch the build sweep
// reads (graph.Snapshot.FullCSR over the same node set). The final-layer
// CSR row for target u holds one entry per universe neighbor v in
// ascending-ID order with weight w(u,v)/√(deg_t(u)·deg_t(v)) — exactly
// the snapshot row writer's entry for source v in row u, and ascending
// neighbor ID equals ascending universe row. Merged entries fold
// duplicate (type, neighbor) pairs in type order, as the writer's merged
// rows do.

// starCompiler compiles the aggregation stars of one table against one
// snapshot. It walks the snapshot's flat per-type adjacency in row space
// and translates neighbour rows to universe rows through a dense table,
// so compiling a star hashes nothing. One is built per Build or Refresh;
// it is read-only afterwards, so workers share it, each with its own
// starScratch.
//
// Every per-type run of a snapshot row ascends by neighbour ID, and the
// universe is sorted, so a run's surviving entries ascend by universe
// row too. The type merge is therefore a k-way merge that takes the
// lower type on a tie: the order a stable sort of the runs concatenated
// in type order would give, hence the same fold order and the same
// summed bits.
type starCompiler struct {
	adj     []graph.Adjacency // per edge type
	snapRow []int32           // universe row → snapshot row, −1 when unregistered
	uniRow  []int32           // snapshot row → universe row, −1 outside the universe
}

// newStarCompiler lays t's universe over snap's rows.
func newStarCompiler(t *Table, snap *graph.Snapshot) *starCompiler {
	c := &starCompiler{
		adj:     make([]graph.Adjacency, snap.NumEdgeTypes()),
		snapRow: make([]int32, len(t.ids)),
		uniRow:  make([]int32, snap.NumNodes()),
	}
	for et := range c.adj {
		c.adj[et] = snap.TypedAdjacency(graph.EdgeType(et))
	}
	for i := range c.uniRow {
		c.uniRow[i] = -1
	}
	for r, id := range t.ids {
		sr := snap.Row(id)
		c.snapRow[r] = sr
		if sr >= 0 {
			c.uniRow[sr] = int32(r)
		}
	}
	return c
}

// starEntry is a pre-localization edge: a universe row plus the
// normalized weight.
type starEntry struct {
	row int32
	w   float64
}

// mergedEntry is one type-merged neighbour: its universe row, its
// position in the gathered block, and its folded weight.
type mergedEntry struct {
	row, local int32
	w          float64
}

// starScratch is one worker's per-star working set, reused from star to
// star.
type starScratch struct {
	typed  []starEntry   // every type's entries, concatenated in type order
	off    []int         // typed[off[et]:off[et+1]] is type et's run
	cur    []int         // per type: the merge cursor into its run
	slot   []int32       // per typed entry: the gathered position of its row
	merged []mergedEntry // the type-merged entries, ascending by row
}

// compile assembles the aggregation star of universe row r. It returns a
// star even when the node has no universe neighbors (self-loop-only
// aggregation still serves). The star is four allocations: the struct,
// Gather, the Typed header, and one edge backing that holds every Typed
// run followed by Merged.
func (c *starCompiler) compile(sc *starScratch, r int32) *gnn.EmbedStar {
	nTypes := len(c.adj)
	sc.typed = sc.typed[:0]
	sc.off = append(sc.off[:0], 0)
	sr := c.snapRow[r]
	for et := range c.adj {
		a := &c.adj[et]
		if sr >= 0 && a.Deg[sr] != 0 {
			du := a.Deg[sr]
			for k := a.Offsets[sr]; k < a.Offsets[sr+1]; k++ {
				vr := a.Nbr[k]
				ur := c.uniRow[vr]
				if ur < 0 {
					continue
				}
				dv := a.Deg[vr]
				if dv == 0 {
					continue
				}
				sc.typed = append(sc.typed, starEntry{row: ur, w: a.Wts[k] / math.Sqrt(du*dv)})
			}
		}
		sc.off = append(sc.off, len(sc.typed))
	}

	// Merge the runs, folding a neighbour shared across types in type
	// order. Gathered block row 0 is the target; merged neighbours follow
	// in ascending row. A self edge (should not occur in a BN, but
	// harmless) maps to local 0.
	nTyped := len(sc.typed)
	sc.cur = append(sc.cur[:0], sc.off[:nTypes]...)
	if cap(sc.slot) < nTyped {
		sc.slot = make([]int32, nTyped)
	}
	sc.slot = sc.slot[:nTyped]
	sc.merged = sc.merged[:0]
	nGather := int32(1)
	for {
		best, row := -1, int32(0)
		for et := 0; et < nTypes; et++ {
			if k := sc.cur[et]; k < sc.off[et+1] && (best < 0 || sc.typed[k].row < row) {
				best, row = et, sc.typed[k].row
			}
		}
		if best < 0 {
			break
		}
		k := sc.cur[best]
		sc.cur[best]++
		w := sc.typed[k].w
		if n := len(sc.merged); n > 0 && sc.merged[n-1].row == row {
			sc.merged[n-1].w += w
		} else {
			local := int32(0)
			if row != r {
				local = nGather
				nGather++
			}
			sc.merged = append(sc.merged, mergedEntry{row: row, local: local, w: w})
		}
		sc.slot[k] = sc.merged[len(sc.merged)-1].local
	}

	gather := make([]int32, nGather)
	gather[0] = r
	edges := make([]gnn.StarEdge, nTyped+len(sc.merged))
	for k, e := range sc.typed {
		edges[k] = gnn.StarEdge{Row: sc.slot[k], Weight: e.w}
	}
	for i, m := range sc.merged {
		if m.local != 0 {
			gather[m.local] = m.row
		}
		edges[nTyped+i] = gnn.StarEdge{Row: m.local, Weight: m.w}
	}
	typed := make([][]gnn.StarEdge, nTypes)
	for et := range typed {
		if lo, hi := sc.off[et], sc.off[et+1]; lo < hi {
			typed[et] = edges[lo:hi:hi]
		}
	}
	return &gnn.EmbedStar{Gather: gather, Typed: typed, Merged: edges[nTyped:]}
}

// ballRows runs a universe-restricted BFS from the seed rows over c's
// snapshot and returns the closed ball of the given radius as ascending
// universe rows. Aggregation reads only universe rows, so staleness
// propagates only through universe members — restricting the walk is
// exact, not an approximation.
func (c *starCompiler) ballRows(seeds []int32, radius int) []int32 {
	visited := make([]bool, len(c.snapRow))
	frontier := make([]int32, 0, len(seeds))
	for _, r := range seeds {
		if !visited[r] {
			visited[r] = true
			frontier = append(frontier, r)
		}
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		var next []int32
		for _, r := range frontier {
			sr := c.snapRow[r]
			if sr < 0 {
				continue
			}
			for et := range c.adj {
				a := &c.adj[et]
				for _, vr := range a.Nbr[a.Offsets[sr]:a.Offsets[sr+1]] {
					if ur := c.uniRow[vr]; ur >= 0 && !visited[ur] {
						visited[ur] = true
						next = append(next, ur)
					}
				}
			}
		}
		frontier = next
	}
	out := make([]int32, 0, len(seeds))
	for r := int32(0); r < int32(len(visited)); r++ {
		if visited[r] {
			out = append(out, r)
		}
	}
	return out
}
