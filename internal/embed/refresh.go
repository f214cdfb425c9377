package embed

import (
	"slices"
	"time"

	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// RefreshStats summarizes one incremental refresh pass.
type RefreshStats struct {
	Dirty   int           // dirty rows targeted
	Ball    int           // rows re-embedded (dirty set padded to Radius hops)
	Cleared int           // dirty bits cleared (rows not re-dirtied mid-refresh)
	Elapsed time.Duration // wall time of the whole pass
}

// Refresh re-embeds the dirty set incrementally: it pads the dirty rows
// D to their universe-restricted closed ball of radius Table.Radius,
// max(1, L−1), runs the capturing forward over that induced subgraph
// with the table's FROZEN features, cuts D's stars from the same batch,
// and republishes rows and stars for D only.
//
// Correctness: with the closed ball B ⊇ ball(D, L−1) and snapshot-exact
// §III-A weights, h^k computed on B matches the full-universe value on
// ball(D, L−1−k) by induction — each aggregation needs one hop of
// correct inputs — so h^{L−1} is exact on D. B ⊇ ball(D, 1) holds every
// universe neighbour of each row of D, and B ascends like the universe,
// so the batch's row of a dirty row is its universe batch row with the
// columns relabelled: the star is exact too. Rows in B∖D keep their
// (clean, still-valid) old values; only D is republished. Features stay
// frozen at build time, so a refresh repairs structural staleness
// exactly while feature staleness is bounded by the periodic full
// rebuild.
//
// Exactly one Refresh (or Build/Install) may run at a time. Deltas that
// Flush while the refresh runs re-dirty rows; the refresh skips
// clearing those bits (Store.remarked), so their next values come from
// a later pass.
func (s *Store) Refresh(snap *graph.Snapshot) RefreshStats {
	start := time.Now()
	var st RefreshStats

	s.mu.Lock()
	tab := s.table.Load()
	if tab == nil {
		s.mu.Unlock()
		return st
	}
	dirty := tab.dirtyRows()
	if len(dirty) == 0 {
		s.mu.Unlock()
		return st
	}
	s.refreshing = true
	s.remarked = make(map[int32]struct{})
	s.mu.Unlock()

	st.Dirty = len(dirty)
	ball := tab.ballRows(snap, dirty, tab.Radius())
	st.Ball = len(ball)

	// Gather the ball's frozen features and run the capturing forward
	// over the induced subgraph: only the captured penultimate
	// activations matter here, the logits are dropped.
	ballIDs := make([]graph.NodeID, len(ball))
	for i, r := range ball {
		ballIDs[i] = tab.ids[r]
	}
	x := tensor.New(len(ball), tab.x.Cols)
	for i, r := range ball {
		copy(x.Row(i), tab.x.Row(int(r)))
	}
	b := gnn.FullBatch(snap, x, graph.FullOptions{Nodes: ballIDs})
	capture := make([]*tensor.Matrix, len(tab.widths))
	for st2, w := range tab.widths {
		capture[st2] = tensor.New(len(ball), w)
	}
	f := gnn.AcquireFwd[float64]()
	tab.model.InferEmbed(f, b, capture)
	gnn.ReleaseFwd(f)

	// Each dirty row's ball position: its capture row, and the batch row
	// its star is cut from.
	at := make([]int, len(dirty))
	for i, r := range dirty {
		at[i], _ = slices.BinarySearch(ball, r)
	}
	stars := make([]*gnn.EmbedStar, len(dirty))
	gnn.CutStars(tab.model, b, at, ball, func(i int, s *gnn.EmbedStar) { stars[i] = s })
	b.Release()

	// Publish under the seqlock: rows and stars for D swap together, and
	// any concurrent TryServe that overlaps the window retries as a
	// fallback rather than mixing generations.
	s.writeGen.Add(1)
	for i, r := range dirty {
		for st2 := range tab.rows {
			row := capture[st2].Row(at[i])
			tab.rows[st2][r].Store(&row)
		}
		tab.stars[r].Store(stars[i])
	}
	s.writeGen.Add(1)

	s.mu.Lock()
	for _, r := range dirty {
		if _, ok := s.remarked[r]; !ok {
			tab.clearRow(r)
			st.Cleared++
		}
	}
	s.refreshing = false
	s.remarked = nil
	// The republished rows reflect snap; older snapshots must no longer
	// serve against them.
	if snap.Epoch() > tab.Epoch() {
		tab.epoch.Store(snap.Epoch())
	}
	s.mu.Unlock()

	st.Elapsed = time.Since(start)
	return st
}

// ballRows runs a universe-restricted BFS from the seed rows over snap's
// flat adjacency and returns the closed ball of the given radius as
// ascending universe rows. Aggregation reads only universe rows, so
// staleness propagates only through universe members — restricting the
// walk is exact, not an approximation. Dense row tables translate
// between universe and snapshot rows, so the walk hashes nothing.
func (t *Table) ballRows(snap *graph.Snapshot, seeds []int32, radius int) []int32 {
	adj := make([]graph.Adjacency, snap.NumEdgeTypes())
	for et := range adj {
		adj[et] = snap.TypedAdjacency(graph.EdgeType(et))
	}
	snapRow := make([]int32, len(t.ids))     // universe row → snapshot row, −1 when unregistered
	uniRow := make([]int32, snap.NumNodes()) // snapshot row → universe row, −1 outside the universe
	for i := range uniRow {
		uniRow[i] = -1
	}
	for r, id := range t.ids {
		sr := snap.Row(id)
		snapRow[r] = sr
		if sr >= 0 {
			uniRow[sr] = int32(r)
		}
	}

	visited := make([]bool, len(t.ids))
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
			sr := snapRow[r]
			if sr < 0 {
				continue
			}
			for et := range adj {
				a := &adj[et]
				for _, vr := range a.Nbr[a.Offsets[sr]:a.Offsets[sr+1]] {
					if ur := uniRow[vr]; ur >= 0 && !visited[ur] {
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
